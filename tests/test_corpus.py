"""Every run of the golden CLI corpus gives its recorded exit code, stdout and
stderr (tests/record_corpus.py)."""

import json
import shlex

import pytest

import record_corpus

CORPUS = json.loads(record_corpus.CORPUS.read_text())
COMMANDS = ("validate", "fusion", "indicators", "rotation", "braid", "report")


def test_the_corpus_holds_every_run():
    assert sorted(CORPUS) == sorted(map(shlex.join, record_corpus.corpus_argvs()))


@pytest.mark.parametrize("command", COMMANDS)
def test_runs_match_the_corpus(tmp_path, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    record_corpus.write_inputs(tmp_path)
    runs = [argv for argv in record_corpus.corpus_argvs() if argv[0] == command]
    changed = [shlex.join(argv) for argv in runs
               if record_corpus.digest(argv) != CORPUS[shlex.join(argv)]]
    assert runs and not changed
