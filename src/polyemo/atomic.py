"""Whole-or-nothing file writes for run artifacts."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path: str | Path, mode: str = "w", **open_kwargs):
    """Write ``path`` through a temp file beside it, swapped in only on success.

    Yields the open temp file ``<path>.tmp``. When the block finishes, the
    file is closed and ``os.replace`` puts it at ``path``; when the block
    raises, the temp file is removed and a previous ``path`` stays as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
