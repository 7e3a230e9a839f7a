"""Exception types shared across the package, and the one way to open a file the user names."""

import os
from contextlib import contextmanager


class AuctionLabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(AuctionLabError):
    """Invalid configuration value or malformed config file."""


class ContractViolation(AuctionLabError):
    """A caller broke a documented precondition (bad allocation, impossible input)."""


class SchemaError(AuctionLabError):
    """A CSV or checkpoint file does not match its documented layout."""


class MissingInputError(AuctionLabError):
    """A required input file is absent; the message names the path."""


class NumericalFault(AuctionLabError):
    """Non-finite value produced where a finite one is required (training guard)."""


@contextmanager
def _open_input(path: str, what: str, kind: type[AuctionLabError]):
    """Open the user's file path (called what) as UTF-8 with newline="". A path that
    is not a file is a MissingInputError; bytes that are not UTF-8, wherever the
    caller's reads meet them, are kind. Both messages name the path."""
    if not os.path.isfile(path):
        raise MissingInputError(f"{what} not found: {path}")
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise kind(f"{what} {path} is not UTF-8 text: {exc}") from None
