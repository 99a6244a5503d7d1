"""Graded-network routing simulator and optimizer benchmark."""

__version__ = "0.1.0"
