"""Small file and formatting helpers shared by serializers and the CLI."""

from __future__ import annotations

import os
import uuid
from pathlib import Path

__all__ = ["atomic_write_text", "fmt_float"]


def fmt_float(x: float) -> str:
    """17 significant digits, which round-trip every float64."""
    return "%.17g" % float(x)


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path through a same-directory temporary file and rename.

    The rename is atomic on POSIX, so readers never observe a half-written
    file and an interrupted run leaves the previous version intact.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{uuid.uuid4().hex}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, target)
    finally:
        if tmp.exists():
            tmp.unlink()
