"""Record sha256 digests of ``exp_serialize`` for the Eisenstein series,
the named cusp forms, the cusp corrections G_k - Q(E4, E6) and Delta, so
refactors of their construction can be held byte for byte against the
commit the digests come from.  G_k and E_k are recorded over Siegel and all
nine Hermitian fields at trace bounds 0-4, and G10 over the nine fields at
bounds 5-7 as well, so every index table order is pinned beyond the
smallest bounds.  The named cusp forms reach Siegel bound 12 (X10, X12) and
bound 7 over -4 and -3 (CHI8, F10, F12).  The cusp corrections reach Siegel bound 12, bound 7 over
-3 and -4 and bound 4 over -163, and Delta n = 200, so the ring products
behind them are pinned at the sizes where they cost.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/capture_forms_goldens.py

It writes ``forms_goldens.json`` beside this script.
"""

import hashlib
import json
import os

from eiscong.congruence import cusp_correction
from eiscong.elliptic import delta_expansion
from eiscong.expansion import exp_serialize
from eiscong.hermitian import (
    CLASS_NUMBER_ONE_DISCRIMINANTS, hermitian_cusp_form, hermitian_expansion,
)
from eiscong.siegel import igusa_x10, igusa_x12, siegel_expansion

TRACE_BOUNDS = range(5)
WEIGHTS = range(4, 13, 2)
HERMITIAN_DISCS = CLASS_NUMBER_ONE_DISCRIMINANTS
G10_TRACE_BOUNDS = range(5, 8)  # G10 over every field beyond TRACE_BOUNDS
# the named cusp forms beyond TRACE_BOUNDS: Siegel, then over -4 and -3
SIEGEL_CUSP_TRACE_BOUNDS = range(5, 13)
HERMITIAN_CUSP_TRACE_BOUNDS = range(5, 8)
HERMITIAN_CUSP_FORMS = (("CHI8", -4), ("F10", -4), ("F10", -3), ("F12", -3))
# G_k - Q(E4, E6) at the trace bounds of the command-line benchmark, then larger
CUSP_CORRECTIONS = (("siegel", None, 10, 8), ("siegel", None, 12, 8),
                    ("hermitian", -4, 10, 5), ("hermitian", -3, 12, 5),
                    *(("siegel", None, k, b) for k in (10, 12) for b in (10, 11, 12)),
                    *(("hermitian", d, k, b) for d in (-3, -4) for k in (10, 12) for b in (6, 7)),
                    *(("hermitian", -163, k, b) for k in (10, 12) for b in (3, 4)))
DELTA_BOUNDS = (160, 200)


def _hermitian_cusp_forms(b):
    for name, d in HERMITIAN_CUSP_FORMS:
        yield (f"hermitian{d}/{name}/b{b}",
               lambda name=name, d=d, b=b: hermitian_cusp_form(name, d, b))


def cases():
    """(label, zero-argument builder) for every recorded expansion."""
    for b in TRACE_BOUNDS:
        for form in ("G", "E"):
            for k in WEIGHTS:
                yield (f"siegel/{form}{k}/b{b}",
                       lambda form=form, k=k, b=b: siegel_expansion(form, k, b))
                for d in HERMITIAN_DISCS:
                    yield (f"hermitian{d}/{form}{k}/b{b}",
                           lambda form=form, d=d, k=k, b=b:
                           hermitian_expansion(form, d, k, b))
        yield f"siegel/X10/b{b}", lambda b=b: igusa_x10(b)
        yield f"siegel/X12/b{b}", lambda b=b: igusa_x12(b)
        yield from _hermitian_cusp_forms(b)
    for b in G10_TRACE_BOUNDS:
        for d in HERMITIAN_DISCS:
            yield f"hermitian{d}/G10/b{b}", lambda d=d, b=b: hermitian_expansion("G", d, 10, b)
    for b in SIEGEL_CUSP_TRACE_BOUNDS:
        yield f"siegel/X10/b{b}", lambda b=b: igusa_x10(b)
        yield f"siegel/X12/b{b}", lambda b=b: igusa_x12(b)
    for b in HERMITIAN_CUSP_TRACE_BOUNDS:
        yield from _hermitian_cusp_forms(b)
    for space, d, k, b in CUSP_CORRECTIONS:
        g = (lambda k=k, b=b: siegel_expansion("G", k, b)) if d is None else (
            lambda d=d, k=k, b=b: hermitian_expansion("G", d, k, b))
        tag = space if d is None else f"{space}{d}"
        yield f"{tag}/cusp_correction(G{k})/b{b}", lambda g=g: cusp_correction(g())
    for n in DELTA_BOUNDS:
        yield f"elliptic/Delta/n{n}", lambda n=n: delta_expansion(n)


def digest(f) -> str:
    return hashlib.sha256(exp_serialize(f).encode()).hexdigest()


def main():
    out = {label: digest(build()) for label, build in cases()}
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "forms_goldens.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {path}")


if __name__ == "__main__":
    main()
