"""Golden per-type tables: every type whose root system the default sweep
builds, against sha256 digests written by the tuple-at-a-time builders
that came before the integer tables (one Python call per root).

The digests cover the positive-root order, the root index, the twice-norms,
the coroots, the reflection table's bytes and the height steps that build
it.  Each is the sha256 of a repr of plain Python ints, so a numpy scalar
leaking into a table changes its digest too.  type_tables.json was written
by `python tests/test_type_tables.py` with those builders.
"""

import hashlib
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from heckeverify import weyl
from heckeverify.rootsystem import build, parse_type
from test_weyl import PLAN_TYPES


@lru_cache(maxsize=None)
def _golden():
    # read on first use, so that the writer below runs without the file
    return json.loads(Path(__file__).with_name("type_tables.json").read_text())


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest(obj) -> str:
    return _sha(repr(obj).encode())


def type_tables(name):
    """The digest of each table of one type."""
    rs = build(parse_type(name))
    refl = weyl._reflection_table(rs.rstype)
    steps = [[[int(i) for i in part] for part in level]
             for level in weyl._height_steps(rs.rstype)]
    return {
        "positive_roots": _digest(list(rs.positive_roots)),
        "index": _digest(sorted(rs.index.items())),
        "twice_norm2": _digest(sorted(zip(rs.all_roots,
                                          rs.twice_norms.tolist()))),
        "coroots": _digest(tuple(rs.coroots)),
        "reflection_table": _sha(f"{refl.dtype} {refl.shape} ".encode()
                                 + refl.tobytes()),
        "height_steps": _digest(steps),
    }


def test_every_plan_type_has_a_golden_entry():
    # the same 35 types as test_weyl.PLAN_TYPES
    assert sorted(_golden()) == sorted(PLAN_TYPES)


@pytest.mark.parametrize("name", sorted(PLAN_TYPES))
def test_type_tables_match_their_golden_digests(name):
    got = type_tables(name)
    want = _golden()[name]
    assert [k for k in want if got[k] != want[k]] == []


if __name__ == "__main__":
    json.dump({name: type_tables(name) for name in PLAN_TYPES},
              sys.stdout, indent=1, sort_keys=True)
    print()
