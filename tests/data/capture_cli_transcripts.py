"""Record sha256 digests of command-line transcripts, so refactors of the
congruence lab can be held byte for byte against the commit the digests
come from.  A transcript is the argv, the exit code, stdout and stderr of
one ``cli.main`` call, run in-process, with the working directory written
as ``$TMP``.  The commands are, in order:

- ``reproduce`` of sections 1, 4.1, 4.2 and 5;
- ``expand`` at trace bound 4 of Siegel G10, X10, G12 and X12, of G10 and
  F10 over -4 and of G12 and F12 over -3, each printed and saved as a file;
- ``congruence solve`` and ``congruence verify``, in text and structured
  format, on each of those four pairs and on the pair swapped, mod the
  published prime, 1009, 3, 9 and 1, with the published multiplier;
- ``cusp-correct`` of the Siegel G10 file.

Run from the repository root:

    PYTHONPATH=src python3 tests/data/capture_cli_transcripts.py

It writes ``cli_transcripts.json`` beside this script.
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from unittest import mock

from eiscong import cli

TRACE_BOUND = "4"
# (G_k file, cusp-form file, published prime, published multiplier), and the
# expand arguments of each file
PAIRS = (("siegel_G10", "siegel_X10", 43867, 11313),
         ("siegel_G12", "siegel_X12", 77683, 53020),
         ("hermitian-4_G10", "hermitian-4_F10", 277, 22),
         ("hermitian-3_G12", "hermitian-3_F12", 1847, 824))
FILES = {
    "siegel_G10": ("--space", "siegel", "--form", "G", "--weight", "10"),
    "siegel_X10": ("--space", "siegel", "--form", "X10"),
    "siegel_G12": ("--space", "siegel", "--form", "G", "--weight", "12"),
    "siegel_X12": ("--space", "siegel", "--form", "X12"),
    "hermitian-4_G10": ("--space", "hermitian", "--disc", "-4", "--form", "G", "--weight", "10"),
    "hermitian-4_F10": ("--space", "hermitian", "--disc", "-4", "--form", "F10"),
    "hermitian-3_G12": ("--space", "hermitian", "--disc", "-3", "--form", "G", "--weight", "12"),
    "hermitian-3_F12": ("--space", "hermitian", "--disc", "-3", "--form", "F12"),
}
EXTRA_MODULI = (1009, 3, 9, 1)  # a prime of no congruence, two that meet denominators, and 1


def commands():
    """(label, argv, file name or None) in run order: an argv names files
    as ``$TMP/<name>.exp``, and an expand's stdout is saved as its file."""
    for section in ("1", "4.1", "4.2", "5"):
        yield f"reproduce/{section}", ["reproduce", "--section", section], None
    for name, args in FILES.items():
        yield f"expand/{name}", ["expand", *args, "--trace-bound", TRACE_BOUND], name
    for g, f, p, lam in PAIRS:
        for lhs, rhs in ((g, f), (f, g)):
            files = ["--lhs", f"$TMP/{lhs}.exp", "--rhs", f"$TMP/{rhs}.exp"]
            for m in (p, *EXTRA_MODULI):
                tag = f"{lhs}/{rhs}/mod{m}"
                yield f"solve/{tag}", ["congruence", "solve", *files, "--mod", str(m)], None
                for fmt in ("text", "structured"):
                    yield (f"verify-{fmt}/{tag}",
                           ["congruence", "verify", *files, "--mod", str(m),
                            "--lambda", str(lam), "--format", fmt], None)
    yield "cusp-correct/siegel_G10", ["cusp-correct", "--in", "$TMP/siegel_G10.exp"], None


def transcripts():
    """label -> sha256 of each command's masked transcript, run in order in
    a fresh directory with no expand cache."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(cli.CACHE_ENV, None)
        for label, argv, save_as in commands():
            argv = [a.replace("$TMP", tmp) for a in argv]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
            if save_as is not None:
                with open(os.path.join(tmp, f"{save_as}.exp"), "w") as fh:
                    fh.write(stdout.getvalue())
            record = [[a.replace(tmp, "$TMP") for a in argv], code,
                      stdout.getvalue().replace(tmp, "$TMP"), stderr.getvalue().replace(tmp, "$TMP")]
            out[label] = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    return out


def main():
    out = transcripts()
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "cli_transcripts.json")
    with open(path, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(out)} digests written to {path}")


if __name__ == "__main__":
    main()
