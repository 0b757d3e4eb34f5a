"""C libraries built once per machine with cc and loaded through ctypes,
each on its first use: the g2 loop (odes), the CSV rows (csvio) and the
Monte Carlo chunk (montecarlo)."""

from __future__ import annotations

import os

CC = ["cc", "-O2", "-fPIC", "-shared", "-ffp-contract=off"]


def load(name, source):
    """ctypes.CDLL of the C source, or None where it cannot be built or
    loaded: no cc, a failed compile, or a cache that cannot be written.

    The library is kept as $XDG_CACHE_HOME/eqreinvest/<name>-<sha256 of
    command and source>.so (under ~/.cache without XDG_CACHE_HOME). It is
    compiled in a temporary directory beside it and moved into place, so
    concurrent first runs do not read a half-written file.
    """
    import ctypes
    import hashlib

    digest = hashlib.sha256(" ".join([*CC, source]).encode()).hexdigest()
    cache = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"), "eqreinvest")
    path = os.path.join(cache, f"{name}-{digest}.so")
    try:
        if not os.path.exists(path):
            _build(name, source, cache, path)
        return ctypes.CDLL(path)
    except OSError:
        return None


def _build(name, source, cache, path):
    """Build source into the shared library path, through a temporary
    directory in cache; raises OSError when that cannot be done."""
    import subprocess
    import tempfile

    os.makedirs(cache, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=cache) as tmp:
        c_file, so_file = os.path.join(tmp, f"{name}.c"), os.path.join(tmp, f"{name}.so")
        with open(c_file, "w", encoding="utf-8") as fh:
            fh.write(source)
        built = subprocess.run([*CC, "-o", so_file, c_file, "-lm"], capture_output=True)
        if built.returncode:
            raise OSError(f"cc exited {built.returncode}: {built.stderr.decode(errors='replace')}")
        os.replace(so_file, path)
