"""Pinned answers: every group of scripts/answer_hashes.py hashes to the
sha256 recorded here, so a change that moves any answer by one bit fails.

The bytes hashed depend on the floating-point environment, not only on this
code: they were recorded with Python 3.11.7 and numpy 2.4.6, whose wheel
bundles OpenBLAS 0.3.31 as its BLAS and LAPACK (kernels picked per CPU at
load time), on an x86-64 Xeon with AVX-512.  Another numpy, LAPACK or CPU may
round differently in the last bit; re-record the hashes there with
`PYTHONPATH=src python scripts/answer_hashes.py` at a commit whose answers are
trusted.
"""

import importlib.util
from pathlib import Path

from frameflow.capacity import (
    capacity_report,
    frame_capacity,
    matrix_capacity,
    matrix_capacity_convex,
)
from frameflow.core import NonNegMatrix, delta_of, size_of

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "answer_hashes.py"

PINNED = {
    "flow-trace": "3b5ed105c290f17d5e1659171ce5f4b46fcadef87cc5b44019e24f7e2f52be10",
    "steering": "97ca28633ae4fabfd00ca3b5f14dcadd18835a44711ca267df73cfb93b98559c",
    "solve-basic": "bdb99c27acc092cf8a7cf0f282c21f41df70d2c807c1aa5cca8fc257a0bc3471",
    "solve-smoothed": "fec45cc4979487c16e7144e3770f0d86c16a1109f040a5749f0cf5fcf8604374",
    "capacity": "317d977bd44b24298b68c3d7a72c7e69ea9d8fdd63c85d343386818c8f0e744a",
    "capacity-strata": "84708c65e17a9d88a64696497eead09a74f398a3cf053778f78f660f4cda9d27",
    "sinkhorn-capped": "2e8226359cc6dad7afd4145734b2e07766e29d717fe6e37d2ef1b2dcd52c5692",
    "zero-check": "05d97f97463c593c79fff768aaedafcdd7bcd20f0ba563c07a1810251a33edb2",
    "zero-check-small": "ab7c8bdd16d1d738a920d88f60b1b80e3f8b1bc0b68dcf991b4e0de2513f5e7a",
}


def _load_script():
    spec = importlib.util.spec_from_file_location("answer_hashes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_answer_hashes_are_pinned():
    digests = {name: digest for name, _, digest in _load_script().group_digests()}
    assert digests.keys() == PINNED.keys()
    moved = [f"{name}: pinned {PINNED[name]}, got {digest}"
             for name, digest in digests.items() if digest != PINNED[name]]
    assert not moved, "answers moved:\n" + "\n".join(moved)


def test_capacity_report_parts_match_the_public_routes():
    """One pass gives, field for field, what the public routes give on the
    capacity-strata draws, and the size and delta of the input."""
    script = _load_script()
    for family, draws in script.STRATA_DRAWS:
        for j in draws:
            obj = script.strata_input(family, j)
            rep = capacity_report(obj)
            assert (rep.size, rep.delta) == (size_of(obj), delta_of(obj))
            if isinstance(obj, NonNegMatrix):
                assert rep.kind == "matrix"
                assert rep.result == matrix_capacity(obj)
                assert rep.convex == matrix_capacity_convex(obj)
            else:
                assert (rep.kind, rep.convex) == ("frame", None)
                assert rep.result == frame_capacity(obj)
