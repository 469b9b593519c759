"""Import icnsim from this checkout's ``src`` and load its packaged config."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = SRC / "icnsim" / "data" / "default.yaml"


class ProgramError(Exception):
    """The program under test is missing or its packaged config is unusable."""


def import_icnsim() -> None:
    """Import the package under test, refusing any copy installed elsewhere."""
    if not (SRC / "icnsim" / "__init__.py").is_file():
        raise ProgramError(f"no icnsim sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import icnsim

    if Path(icnsim.__file__).resolve().parent != (SRC / "icnsim").resolve():
        raise ProgramError(f"icnsim imported from {icnsim.__file__}, not from {SRC}")


def load_default_config():
    """``load_config`` and ``validate`` on the packaged config, as ``icnsim run`` does."""
    import_icnsim()
    from icnsim.scenario import load_config

    config = load_config(DEFAULT_CONFIG)
    findings = config.validate()
    if findings:
        raise ProgramError(f"packaged config does not validate: {findings}")
    return config
