"""The shared Bernoulli table under regrowth, concurrent first use and an
irregular-prime scan.  Each case runs in a fresh interpreter, so the table
starts with B_0 alone whatever the other tests have asked for."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from .oracles import bernoulli_tangent

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter and return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@lru_cache(maxsize=None)
def oracle() -> dict[int, Fraction]:
    # Seidel's zigzag triangle: independent of the in-place tangent recurrence
    return bernoulli_tangent(1200)


@pytest.mark.parametrize(
    "order",
    [(600, 20, 1200, 2), (2, 1200, 20, 600), (1200, 600, 2, 20), (20, 2, 600, 1200)],
)
def test_regrowth_in_any_order_matches_oracle(order):
    got = fresh_interpreter(f"""
        import json
        from eiscong.arith import _BERN_EVEN, bernoulli, format_rational
        assert len(_BERN_EVEN) == 1
        seen, replaced = {{}}, []
        for m in {order!r}:
            seen[m] = bernoulli(m)
            replaced += [old for old, value in seen.items() if bernoulli(old) is not value]
        print(json.dumps({{"replaced": replaced,
                          "values": {{m: format_rational(v) for m, v in seen.items()}}}}))
    """)
    assert got["replaced"] == []
    for m, text in got["values"].items():
        assert Fraction(text) == oracle()[int(m)]


def test_concurrent_first_use_agrees():
    indices = [1200, 2, 600, 20, 900, 64, 1000, 300]
    got = fresh_interpreter(f"""
        import json, sys, threading
        from eiscong.arith import bernoulli, format_rational
        indices = {indices!r}
        start = threading.Barrier(len(indices))
        got = {{}}

        def first_use(m):
            start.wait()
            got[m] = bernoulli(m)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_use, args=(m,)) for m in indices]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        print(json.dumps({{
            "alive": [m for m, t in zip(indices, threads) if t.is_alive()],
            "replaced": [m for m in got if bernoulli(m) is not got[m]],
            "values": {{m: format_rational(v) for m, v in got.items()}},
        }}))
    """)
    assert got["alive"] == []
    assert got["replaced"] == []
    assert sorted(int(m) for m in got["values"]) == sorted(indices)
    for m, text in got["values"].items():
        assert Fraction(text) == oracle()[int(m)]


def test_irregular_scan_builds_the_table_once():
    # 199 is the largest prime <= 200, so the scan tests B_m up to m = 196
    got = fresh_interpreter("""
        import json
        from eiscong import arith
        from eiscong.congruence import irregular_pairs
        builds = []
        build = arith._tangent_numbers

        def counted(n):
            builds.append(n)
            return build(n)

        arith._tangent_numbers = counted
        irregular_pairs(200)
        print(json.dumps({"builds": builds, "table_len": len(arith._BERN_EVEN)}))
    """)
    assert got == {"builds": [98], "table_len": 99}


def test_generalized_bernoulli_builds_the_table_once():
    # B_201,chi(-163) uses B_j for j <= 200, so one build to k = 100
    got = fresh_interpreter("""
        import json
        from eiscong import arith
        builds = []
        build = arith._tangent_numbers

        def counted(n):
            builds.append(n)
            return build(n)

        arith._tangent_numbers = counted
        arith.generalized_bernoulli(201, -163)
        print(json.dumps({"builds": builds, "table_len": len(arith._BERN_EVEN)}))
    """)
    assert got == {"builds": [100], "table_len": 101}


def test_a_request_just_past_the_table_grows_it_by_a_quarter():
    # B_2000 builds the table to k = 1000; B_2002 then grows it to
    # k = 1000 + 1000 // 4 at most, i.e. B_2502, not to twice the size
    got = fresh_interpreter("""
        import json
        from eiscong import arith
        builds = []
        build = arith._tangent_numbers

        def counted(n):
            builds.append(n)
            return build(n)

        arith._tangent_numbers = counted
        arith.bernoulli(2000)
        arith.bernoulli(2002)
        print(json.dumps({"builds": builds, "table_len": len(arith._BERN_EVEN)}))
    """)
    assert got["builds"][0] == 1000
    assert len(got["builds"]) == 2
    assert 1001 <= got["builds"][1] <= 1251
    assert got["table_len"] == got["builds"][1] + 1
