"""Two-step sparse subspace clustering for vocalization spectrograms.

Import each name from its defining module; this package imports nothing.
"""

__version__ = "0.1.0"
