"""k3mahler: numerical and exact verification of the Mahler-measure /
L-value identities for the family x + 1/x + y + 1/y + z + 1/z - k."""

__version__ = "0.1.0"

__all__ = ["__version__"]
