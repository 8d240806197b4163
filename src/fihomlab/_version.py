"""The package version, in a module of its own so that the runner can key
its cache on it without importing the package ``__init__``."""

__version__ = "0.1.0"
