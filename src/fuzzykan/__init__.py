"""Convolutional networks with Type-1 fuzzy pooling and KAN heads on a numpy autodiff core."""

__version__ = "0.1.0"
