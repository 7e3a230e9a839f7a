"""How many clicks before a conversion-rate estimate can be trusted?

chernoff_min_clicks(epsilon, cvr) evaluates
N = ceil((2 + epsilon) * ln(1 / epsilon) / (epsilon^2 * cvr)). After N
clicks at rate cvr the multiplicative Chernoff bound
exp(-epsilon^2 * N * cvr / (2 + epsilon)) puts the chance that the
conversion count ends above (1 + epsilon) times its mean at most epsilon,
and the same holds below (1 - epsilon) times it. The Monte Carlo check
below measures the actual failure rate at N and at N/100.
"""

from auctionlab import chernoff_empirical_check, chernoff_min_clicks

grid = [(0.05, 0.05), (0.1, 0.05), (0.1, 0.15), (0.2, 0.1), (0.3, 0.1)]

print(f"{'epsilon':>8} {'cvr':>6} {'min clicks':>11}")
for eps, cvr in grid:
    print(f"{eps:8.2f} {cvr:6.2f} {chernoff_min_clicks(eps, cvr):11d}")

print("\nempirical failure rates over 4000 binomial trials (seed 0):")
print(f"{'epsilon':>8} {'cvr':>6} {'volume':>8} {'rate':>8} {'bound':>6}")
for eps, cvr in [(0.1, 0.05), (0.2, 0.1)]:
    n = chernoff_min_clicks(eps, cvr)
    at_n = chernoff_empirical_check(cvr, eps, trials=4000, click_volume=n)
    starved = chernoff_empirical_check(cvr, eps, trials=4000, click_volume=n // 100)
    print(f"{eps:8.2f} {cvr:6.2f} {n:8d} {at_n:8.4f} {'<= ' + str(eps):>6}")
    print(f"{eps:8.2f} {cvr:6.2f} {n // 100:8d} {starved:8.4f} {'blown':>6}")

print("\nthe bound is conservative: at the prescribed volume the measured")
print("failure rate sits well under epsilon, while a hundredth of the")
print("volume fails most of the time.")
