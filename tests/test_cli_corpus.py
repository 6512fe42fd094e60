"""The CLI corpus: each line of ``cli_lines.corpus_lines`` that does not
print help keeps the exit status, stdout hash and stderr line recorded in
``golden/cli_corpus.txt`` (recorded with argparse 3.11's reader; the
command line now words every diagnostic itself, on every Python release).
The test names the first line that differs."""

from pathlib import Path

from cli_lines import corpus_lines, corpus_record

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.txt"


def test_corpus_matches_recording():
    recorded = CORPUS.read_text().splitlines()
    records = [record for record in map(corpus_record, corpus_lines()) if record is not None]
    for expected, actual in zip(recorded, records):
        assert actual == expected, "first line that differs"
    assert len(records) == len(recorded)
