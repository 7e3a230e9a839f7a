"""Train the learned payer on a toy market and race it against the debt payer.

The policy is a small Gaussian MLP mapping per-click state features to a
payment; PPO with a clipped surrogate trains it against a reward that mixes
checkpoint accuracy and payment smoothness. Training is fully seeded:
rerunning this script gives the same curves, the same weights, and the
same checkpoint file byte for byte.
"""

import os
import tempfile

import numpy as np

from auctionlab import (
    RLConfig,
    evaluate_debt_controller,
    evaluate_rl_controller,
    load_checkpoint,
    load_config,
    save_checkpoint,
    train,
)

CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "configs", "toy_train.yaml")


def main() -> None:
    config = load_config(CONFIG)
    rl = RLConfig()
    print(f"market: {config.market.num_bidders} bidder, {config.market.num_rounds} rounds, "
          f"{len(config.market.stage_plan)} stages")
    print(f"training: {rl.updates} updates x {rl.epochs} epochs, hidden {rl.hidden}\n")

    result = train(config.market, rl, seed=1)
    print(f"aborted updates: {result.aborted_updates}")
    # the on-policy curve stays noisy: rollouts act with exploration noise,
    # and an occasional excursion buys a large negative reward spike
    print("curve samples (mean |checkpoint ratio - 1| per update):")
    for row in result.curves[:: max(1, len(result.curves) // 6)]:
        print(f"  update {int(row['update']):3d}  ratio err {row['mean_abs_ratio_err']:.4f}"
              f"  reward {row['mean_reward']:8.3f}")

    # held-out markets the trainer never saw; the policy acts deterministically
    # here, so these errors sit well below the noisy on-policy curve above
    seeds = (1000, 1001, 1002)
    learned = evaluate_rl_controller(config.market, seeds, result.policy, rl)
    debt = evaluate_debt_controller(config.market, seeds)
    print(f"\nheld-out checkpoint error  learned {learned['ratio_err']:9.4f}"
          f"  debt {debt['ratio_err']:9.3e}")
    print(f"held-out smoothness        learned {learned['smoothness']:9.4f}"
          f"  debt {debt['smoothness']:9.3e}")
    print("the debt payer is more accurate here; the learned payer trades a few")
    print("points of accuracy for per-click payments that barely move between")
    print("clicks, where the debt schedule swings by orders of magnitude.")

    # checkpoints are plain text and roundtrip exactly
    path = os.path.join(tempfile.mkdtemp(), "policy.txt")
    save_checkpoint(result.policy, result.critic, path)
    policy2, critic2 = load_checkpoint(path)
    assert np.array_equal(result.policy.net.get_flat(), policy2.net.get_flat())
    assert np.array_equal(result.critic.get_flat(), critic2.get_flat())
    print(f"\ncheckpoint saved to {path} and reloaded bit-exactly")
    with open(path) as fh:
        for line in [next(fh) for _ in range(3)]:
            print("  " + line.rstrip()[:72])


if __name__ == "__main__":
    main()
