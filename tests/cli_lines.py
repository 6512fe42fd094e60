"""Command lines shared by the CLI tests, and the CLI corpus.

* ``FUZZ_BASE`` - a valid line per command, which the fuzz tests edit with
  ``FUZZ_TOKENS`` (``edited_line``), then maybe with one of ``SPELLINGS``
  (``spelled_line``).
* ``PLAIN_LINES`` and ``DEFERRED_LINES`` - fixed lines that every reader
  test checks: plain lines (options spelled as declared, each once, and one
  run of positionals), and lines with abbreviations, attached values,
  repeated options, separators, help and usage errors.
* ``GOLDEN_ARGV`` and ``GOLDEN_ERRORS`` - the lines of ``golden/cli/``.
* ``corpus_lines`` - the ~3,000 lines of the CLI corpus, drawn with
  ``random.Random(0)``; ``corpus_record`` - a line's exit status, the first
  16 hex digits of its stdout's sha256 and its stderr line, tab-separated
  after the line itself as JSON.  ``golden/cli_corpus.txt`` holds the
  record of every corpus line that does not print help.  Re-record it with

      PYTHONPATH=src python tests/cli_lines.py > tests/golden/cli_corpus.txt
"""

import contextlib
import hashlib
import io
import json
import random
import sys

from curvejac.cli import main

# A valid command line per command; the fuzz tests edit them at random.
FUZZ_BASE = {
    "classify": ["-g", "2", "-a", "1", "-b", "1", "-c", "-1/2"],
    "pair": ["-g", "2", "1,1,1", "-1,1,0"],
    "intersect": ["-g", "2", "1,1,1", "2,1,1", "0,1,0"],
    "pullback": ["-g", "3", "-m", "2", "-n", "-5/3"],
    "decompose": ["-g", "2", "-a", "3", "-b", "1", "-c", "1"],
    "height": ["-g", "2", "-L", "8,1,2", "32,1,4"],
    "curve-height": ["-g", "5"],
    "minima": ["-g", "2", "-L", "8,1,2"],
    "witness": ["-g", "3", "-n", "2"],
    "audit": ["-g", "4"],
    "table": ["2", "6"],
}
# Genus and table bounds stay at or below 30 so every run is quick.
FUZZ_TOKENS = [
    *FUZZ_BASE, "nonsense", "-g", "--genus", "-a", "-b", "-c", "--c=-1/2", "-m",
    "-n", "--index", "-L", "--bundle", "--format", "--format=csv", "--format=json",
    "text", "json", "csv", "--", "-h", "-x", "0", "1", "2", "3", "12", "30", "-1",
    "-2", "1/2", "-1/2", "1/0", "1.5", "a", "", "0,0,0", "1,1,1", "2,1,1", "8,1,2",
    "-1,1,0", "0,1,0", "1,1", "1,1,1,1", "1/0,1,1", "1,-1/2,1", "1_0", " 3", "3\n",
    "+3", "007", "1_0,1,1",
]
# Spellings outside the plain form of ``PLAIN_LINES``: a bare or
# trailing '--', a short flag with its value attached, an empty '=' value,
# an abbreviation, help, values that are option-like or empty, '-h' chained
# with a letter, an '=' value on '--help', and the ambiguous '--=3'.
SPELLINGS = ["--", "-g=3", "-g3", "--genus=", "--gen", "-h", "x y", "-x y", "-", "",
             "-hg", "-hx", "--help=x", "--=3"]


def edited_line(pick) -> list:
    """A command line from ``FUZZ_BASE`` after up to three random edits
    with ``FUZZ_TOKENS``; ``pick(seq)`` chooses one element of ``seq``."""
    command = pick(sorted(FUZZ_BASE))
    argv = [command, *FUZZ_BASE[command]]
    for _ in range(pick(range(4))):
        i = pick(range(len(argv)))
        edit = pick(["insert", "replace", "delete"])
        if edit == "delete":
            del argv[i]
        else:
            argv[i:i + (edit == "replace")] = [pick(FUZZ_TOKENS)]
        if not argv:
            break
    return argv


def spelled_line(pick) -> list:
    """``edited_line``, then maybe a trailing '--', one of ``SPELLINGS``
    inserted, a repeated token pair (such as a flag and its value), or the
    two tokens after the command moved before it."""
    argv = edited_line(pick)
    edit = pick(["none", "dashes", "token", "repeat", "front"])
    if edit == "front":
        argv[:3] = argv[1:3] + argv[:1]
    elif edit == "dashes":
        argv.append("--")
    elif edit == "token":
        argv.insert(pick(range(len(argv) + 1)), pick(SPELLINGS))
    elif edit == "repeat" and len(argv) > 1:
        i = pick(range(1, len(argv)))
        argv[len(argv):] = argv[i:i + 2]
    return argv


# Plain lines: options spelled as declared, each once, and one run of
# positionals.
PLAIN_LINES = [
    ["audit", "-g", "2"],
    ["audit", "--genus=12", "--bundle", "8,1,2", "--format", "json"],
    ["classify", "-g", "3", "-a", "1", "--b=2/3", "--c=-1/2", "--format=json"],
    ["pullback", "-g", "3", "-m", "-1/2", "--n", "5"],
    ["pair", "-g", "2", "1,1,1", "-1,1,0"],
    ["pair", "1,1,1", "2,1,1", "-g", "2"],
    ["intersect", "-g", "2", "--format", "json", "--", "1,1,1", "-x", "0,1,0"],
    ["height", "-g", "2", "-L", "8,1,2", "32,1,4"],
    ["witness", "--genus", "3", "--index=2"],
    ["table"],
    ["table", "--format", "csv"],
    ["table", "2"],
    ["table", "2", "6", "--format", "csv"],
]

# Every other spelling and every usage error.
DEFERRED_LINES = [
    ["audit", "-g", "2", "--"],  # "unrecognized arguments: --"
    ["audit", "-g", "2", "--", "--"],
    ["intersect", "-g", "2", "--", "1,1,1", "--", "0,1,0"],
    ["table", "--format", "csv", "2", "4"],
    ["table", "--", "2", "4"],
    ["audit", "-g", "3", "-g", "4"],  # the last one wins
    ["audit", "-g", "3", "--genus=4"],
    ["intersect", "a", "b", "-g", "2", "c"],
    ["pair", "-g", "2", "1,1,1", "--format", "json", "2,1,1"],
    ["audit", "-g=3"], ["audit", "-g3"], ["audit", "--genus="], ["audit", "--gen", "3"],
    ["audit", "-h"], ["audit", "-g", "2", "--help"], ["audit", "-g", "-x"],
    ["audit", "-g", "2", "-L", ""], ["audit", "-g"], ["audit"],
    ["table", "--format", "xml"], ["audit", "-g", "1_0"], ["table", "2", "3", "4"],
    ["pair", "-g", "2", "1,1,1"], ["intersect", "-g", "2"], ["curve-height", "-g", "2", "x"],
    ["audit", "-g", "2", "-L"],  # a flag with no value at the end
    # '-h' chained with a letter: help, or an error when no flag has it.
    ["audit", "-hg", "3"], ["classify", "-hx"], ["audit", "-hg"],
    ["audit", "--help=x"], ["audit", "--=3"], ["audit", "-g", "x", "--=3"],
    ["-g", "3", "audit"], ["-x", "audit", "-g", "2"],  # options before the command
    ["audit", "-g", "2", "-L", "-"], ["audit", "-g", "2", "-L", "x y"],  # '-', a space
    ["pair", "-g", "2", "1,1,1", "2,1,1", "--"], ["table", "2", "--", "3", "--"],
]

# name -> argv of golden/cli/<name>.txt; <name>.json adds '--format json'.
GOLDEN_ARGV = {
    "classify_interior": ["classify", "-g", "2", "-a", "3", "-b", "1", "-c", "1"],
    "classify_boundary": ["classify", "-g", "2", "-a", "2", "-b", "1", "-c", "1"],
    "classify_apex": ["classify", "-g", "2", "-a", "0", "-b", "0", "-c", "0"],
    "classify_outside": ["classify", "-g", "2", "-a", "1", "-b", "1", "-c", "1"],
    "pair": ["pair", "-g", "3", "1/2,1,-1", "2,1,1"],
    "intersect": ["intersect", "-g", "2", "2,1,1", "2,1,1", "0,1,0"],
    "pullback": ["pullback", "-g", "3", "-m", "2", "-n", "-5/3"],
    "decompose": ["decompose", "-g", "2", "-a", "3", "-b", "1", "-c", "1"],
    "decompose_degenerate": ["decompose", "-g", "2", "-a", "5", "-b", "0", "-c", "0"],
    "height": ["height", "-g", "2", "-L", "8,1,2", "32,1,4"],
    "curve_height": ["curve-height", "-g", "5"],
    "minima": ["minima", "-g", "2", "-L", "8,1,2"],
    "witness": ["witness", "-g", "3", "-n", "2"],
    "audit": ["audit", "-g", "4"],
    "audit_bundle": ["audit", "-g", "2", "-L", "1,1,0"],
    "audit_flags": ["audit", "-g", "3"],
    "table_2_6": ["table", "2", "6"],
}

# Golden diagnostics: name -> argv, exiting 2 with golden/cli/<name>.stderr
# on stderr and nothing on stdout.  The first eight are TestErrorPaths'; the
# usage errors at the end are worded as argparse 3.11 words them.
GOLDEN_ERRORS = {
    "error_genus_one": ["classify", "-g", "1", "-a", "1", "-b", "0", "-c", "0"],
    "error_short_class": ["pair", "-g", "2", "1,1", "2,1,1"],
    "error_zero_denominator": ["pair", "-g", "2", "1,1,1/0", "2,1,1"],
    "error_point_not_positive": ["height", "-g", "2", "0,1,0"],
    "error_minima_not_nef": ["minima", "-g", "2", "-L", "1,1,1"],
    "error_witness_index": ["witness", "-g", "2", "-n", "0"],
    "error_curve_height_degree": ["curve-height", "-g", "2", "-L", "0,1,0"],
    "error_audit_csv": ["audit", "-g", "2", "--format", "csv"],
    "error_short_class_csv": ["pair", "-g", "2", "1,1", "2,1,1", "--format", "csv"],
    "error_table_reversed": ["table", "5", "3"],
    "error_table_genus_one": ["table", "1", "4"],
    "error_unknown_command": ["nonsense"],
    "error_format_choice": ["audit", "-g", "2", "--format", "xml"],
    "error_genus_missing": ["audit"],
    "error_genus_no_value": ["audit", "-g"],
    "error_genus_not_int": ["audit", "-g", "x"],
    "error_unrecognized": ["audit", "-g", "2", "x"],
}

CORPUS_SIZE = 3000


def corpus_lines() -> list:
    """The fixed and golden lines; each ``FUZZ_BASE`` line with each of
    ``SPELLINGS`` inserted at each place; then lines from ``spelled_line``
    drawn with ``random.Random(0)``: each line once, ``CORPUS_SIZE`` in all."""
    lines = [*PLAIN_LINES, *DEFERRED_LINES, *GOLDEN_ERRORS.values()]
    lines += [argv + fmt for argv in GOLDEN_ARGV.values() for fmt in ([], ["--format", "json"])]
    lines += [[command, *base][:i] + [token] + [command, *base][i:]
              for command, base in FUZZ_BASE.items()
              for token in SPELLINGS for i in range(len(base) + 2)]
    corpus = dict.fromkeys(map(tuple, lines))
    rng = random.Random(0)
    while len(corpus) < CORPUS_SIZE:
        corpus.setdefault(tuple(spelled_line(rng.choice)))
    return list(map(list, corpus))


def corpus_record(argv: list):
    """The corpus record of ``argv`` run through ``main`` in this process,
    or None when it prints help (exit 0, stdout opening with 'usage:')."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(list(argv))
    if status == 0 and out.getvalue().startswith("usage:"):
        return None
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    stderr = err.getvalue().removesuffix("\n")
    assert "\n" not in stderr and "\t" not in stderr, (argv, stderr)
    return f"{json.dumps(argv)}\t{status}\t{digest}\t{stderr}"


if __name__ == "__main__":
    for argv in corpus_lines():
        record = corpus_record(argv)
        if record is not None:
            sys.stdout.write(record + "\n")
