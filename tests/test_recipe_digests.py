"""Pin the data files of every CLI recipe to committed SHA-256 digests.

``recipe_digests.json`` holds, per data file, the digest of the whole file
and a short digest of each block of its ``block_lines`` lines (one line in
a file of up to 256 lines), which locates a mismatch.  ``manifest.json``
and ``config_used.ini`` name the output directory and the run's timing, so
they are left out.  The digests hold for the environment the table names;
a change that moves an output on purpose updates the table and says why in
CHANGES.md.
"""

import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np

from repelflow.cli import RECIPES, recipe, run
from repelflow.errors import ResolutionWarning

TABLE = json.loads(Path(__file__).with_name("recipe_digests.json").read_text())
UNPINNED = ("manifest.json", "config_used.ini")


def _block_digests(lines, size):
    return [hashlib.sha256("".join(lines[i:i + size]).encode()).hexdigest()[:12]
            for i in range(0, len(lines), size)]


def _first_difference(name, data, pinned):
    """Where a file leaves its pinned digest: its first differing block."""
    lines = data.decode().splitlines(keepends=True)
    size = pinned["block_lines"]
    blocks = pinned["blocks"].split()
    for k, digest in enumerate(_block_digests(lines, size)):
        if k >= len(blocks) or digest != blocks[k]:
            first = k * size
            where = (f"line {first + 1}" if size == 1 else
                     f"lines {first + 1}-{min(first + size, len(lines))}, from")
            return f"{name}: first differs at {where} {lines[first].rstrip()!r}"
    return f"{name}: the file ends after {len(lines)} lines, the pinned one goes on"


def _environment():
    try:
        import numba  # noqa: F401
        jit = "numba present"
    except ImportError:
        jit = "numba absent"
    return f"numpy {np.__version__}, Python {platform.python_version()}, {jit}"


def test_recipe_artifacts_match_pinned_digests(tmp_path):
    with warnings.catch_warnings():
        # attraction_perturbed opts in past the provable eps
        warnings.simplefilter("ignore", ResolutionWarning)
        for name in sorted(RECIPES):
            cfg = recipe(name)
            cfg.out = str(tmp_path / name)
            assert run(cfg) == 0
    produced = {p.relative_to(tmp_path).as_posix(): p for p in tmp_path.rglob("*")
                if p.is_file() and p.name not in UNPINNED}
    assert sorted(produced) == sorted(TABLE["files"])
    problems = []
    for name, pinned in sorted(TABLE["files"].items()):
        data = produced[name].read_bytes()
        if hashlib.sha256(data).hexdigest() != pinned["sha256"]:
            problems.append(_first_difference(name, data, pinned))
    assert not problems, "\n".join(
        problems + [f"the digests hold for {TABLE['environment']}; "
                    f"this run has {_environment()}"])
