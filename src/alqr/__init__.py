"""Adaptive SDP-based LQ control with regret instrumentation.

The package root exports nothing; import the submodules (``alqr.harness``,
``alqr.loops``, ...) directly.
"""

__version__ = "0.1.0"
