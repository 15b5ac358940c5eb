"""Numeric defaults and the optional key=value configuration file.

Numerically integrated quantities default to QUADRATURE_TOLERANCE.  The CLI
reads overrides from the file named by the FOURIERKIT_CONFIG environment
variable; command-line flags win over the file.
"""

from __future__ import annotations

import os

from .core import ParseError

QUADRATURE_TOLERANCE = 1e-6
MAX_SUBDIVISIONS = 100_000

CONFIG_ENV_VAR = "FOURIERKIT_CONFIG"

# Recognized config keys and the CLI settings they feed.
#   quad_tolerance  -> absolute tolerance for quadrature-backed commands
#   fft_strategy    -> default --method for the transform command (dft|fft)
VALID_KEYS = ("quad_tolerance", "fft_strategy")


def load_config(path: str | None = None) -> dict[str, str]:
    """Read key=value pairs from ``path`` or from $FOURIERKIT_CONFIG.

    Missing file name means no overrides.  Blank lines and '#' comments are
    skipped.  A line without '=' or an unknown key raises ParseError, so typos
    do not silently pass.
    """
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if not path:
        return {}
    settings: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in VALID_KEYS:
                raise ParseError(f"{path}:{lineno}: unknown config key {key!r}")
            settings[key] = value
    return settings
