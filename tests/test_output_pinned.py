"""The bytes of every `evaluate` report mode and of `align`, pinned by digest.

Each digest holds for the --out file and for stdout alike. A change that is
meant to keep the output identical (a faster path, a refactor) must keep
these digests. A change that means to alter the output states so and
updates them. The --out digests are checked under every interpreter from
Python 3.10 on that is installed, each in a subprocess, and under several
hash seeds.
"""

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import dump_corpus
from medwer import cli
from medwer.fixtures import synthetic_corpus

# Every letter to one precomposed non-ASCII letter, one code point each, so
# entity offsets stay valid.
_LETTER_MAP = str.maketrans("abcdefghijklmnopqrstuvwxyz", "áḃçďéḟğĥïĵķĺṁñöṗʠřşťüṽŵẋÿž")

_COMMANDS = {
    "evaluate-json-per-sample": ["evaluate", "--per-sample"],
    "evaluate-csv-per-sample": ["evaluate", "--format", "csv", "--per-sample"],
    "evaluate-table-groups": ["evaluate", "--format", "table", "--group-by", "model,accent"],
    "evaluate-raw": ["evaluate", "--normalization", "raw", "--threshold", "0.7", "--max-ngram", "4"],
    "evaluate-json-groups": ["evaluate", "--group-by", "model,accent"],
    "evaluate-json-per-sample-groups-w2": ["evaluate", "--per-sample", "--group-by", "model,accent",
                                           "--workers", "2"],
    "align-w1": ["align", "--workers", "1"],
    "align-w2": ["align", "--workers", "2"],
}

_DIGESTS = {
    ("ascii", "evaluate-json-per-sample"): "8e2a8df018aa4f8a368533543db715871265cac89dbeb869c97eac1f30becf11",
    ("ascii", "evaluate-csv-per-sample"): "ce1b5f785fd28a03a21102f3c15fa47bfb5eae70cf57c218ffd4471f1b8ccf52",
    ("ascii", "evaluate-table-groups"): "d91ff3f5c496f075d8866c6b236f0c120ce7d573c30c908be5b291783a4ecba6",
    ("ascii", "evaluate-raw"): "56e8c25051367e6ec7c63e445aab6cc2b958194ec97382d9fe511000ba5a0794",
    ("ascii", "evaluate-json-groups"): "6f26c6b0f77ded628ccbd4592f4d87ecb8cc0f9e41b48de90eab159d83e5e117",
    ("ascii", "evaluate-json-per-sample-groups-w2"): "cdb815d0a519a266a6feffdef782c5c618ccfae5b2e9d9c57eea22706c2c4e53",
    ("ascii", "align-w1"): "46d2670dcad4ac30fa40dd10dbc09821ccf3448265b1ec7e4917252ba9d30567",
    ("ascii", "align-w2"): "46d2670dcad4ac30fa40dd10dbc09821ccf3448265b1ec7e4917252ba9d30567",
    # The map is 1:1, so every score and count is unchanged and a report
    # names no entity text: the mapped reports equal the ASCII ones.
    ("mapped", "evaluate-json-per-sample"): "8e2a8df018aa4f8a368533543db715871265cac89dbeb869c97eac1f30becf11",
    ("mapped", "evaluate-csv-per-sample"): "ce1b5f785fd28a03a21102f3c15fa47bfb5eae70cf57c218ffd4471f1b8ccf52",
    ("mapped", "evaluate-table-groups"): "d91ff3f5c496f075d8866c6b236f0c120ce7d573c30c908be5b291783a4ecba6",
    ("mapped", "evaluate-raw"): "56e8c25051367e6ec7c63e445aab6cc2b958194ec97382d9fe511000ba5a0794",
    ("mapped", "evaluate-json-groups"): "6f26c6b0f77ded628ccbd4592f4d87ecb8cc0f9e41b48de90eab159d83e5e117",
    ("mapped", "evaluate-json-per-sample-groups-w2"): "cdb815d0a519a266a6feffdef782c5c618ccfae5b2e9d9c57eea22706c2c4e53",
    ("mapped", "align-w1"): "9e7751276087796e07429f1b568a2e9df925a560547120303650d87f985613d0",
    ("mapped", "align-w2"): "9e7751276087796e07429f1b568a2e9df925a560547120303650d87f985613d0",
}


def _mapped(pairs, annotations):
    pairs = [dataclasses.replace(p, reference=p.reference.translate(_LETTER_MAP),
                                 hypothesis=p.hypothesis.translate(_LETTER_MAP)) for p in pairs]
    annotations = {key: dataclasses.replace(a, entities=tuple(
        dataclasses.replace(e, text=e.text.translate(_LETTER_MAP)) for e in a.entities))
        for key, a in annotations.items()}
    return pairs, annotations


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    pairs, annotations = synthetic_corpus(200, seed=5)
    out = {}
    for name, corpus in (("ascii", (pairs, annotations)), ("mapped", _mapped(pairs, annotations))):
        out[name] = dump_corpus(tmp_path_factory.mktemp(name), *corpus)
    return out


# The --out cases keep the ids they had before stdout was pinned too.
@pytest.mark.parametrize("corpus, command, destination", [
    pytest.param(corpus, command, destination,
                 id=f"{corpus}-{command}" + ("-stdout" if destination == "stdout" else ""))
    for corpus, command in sorted(_DIGESTS) for destination in ("out", "stdout")])
def test_output_bytes_are_pinned(corpora, tmp_path, capsysbinary, corpus, command, destination):
    manifest, annotations = corpora[corpus]
    out = tmp_path / "out"
    argv = _COMMANDS[command]
    flags = ["--out", str(out)] if destination == "out" else []
    assert cli.main([*argv[:1], "--manifest", str(manifest), "--annotations", str(annotations),
                     *flags, *argv[1:]]) == cli.EXIT_OK
    written = capsysbinary.readouterr().out
    if destination == "out":
        assert written == b""
        written = out.read_bytes()
    assert hashlib.sha256(written).hexdigest() == _DIGESTS[corpus, command]


def _interpreter(minor):
    """The first python3.<minor> under $PYENV_ROOT/versions or on PATH that
    runs and is that version (a pyenv shim may be neither), or None."""
    name = f"python3.{minor}"
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    paths = [*sorted(root.glob(f"versions/3.{minor}.*/bin/{name}")),
             *(Path(d) / name for d in os.environ.get("PATH", "").split(os.pathsep) if d)]
    for path in paths:
        if not os.access(path, os.X_OK):
            continue
        done = subprocess.run([path, "-c", "import sys; print(sys.version_info[:2])"],
                              capture_output=True, text=True)
        if done.stdout.strip() == f"(3, {minor})":
            return path
    return None


_RUN_ALL = "import json, sys\nfrom medwer import cli\nprint([cli.main(argv) for argv in json.loads(sys.argv[1])])"


@pytest.mark.parametrize("minor", range(10, 15), ids=lambda minor: f"python3.{minor}")
def test_output_bytes_are_pinned_under_every_interpreter(corpora, tmp_path, minor):
    python = _interpreter(minor)
    if python is None:
        pytest.skip(f"python3.{minor} is neither under $PYENV_ROOT/versions nor on PATH")
    argvs = []
    for i, (corpus, command) in enumerate(_DIGESTS):
        manifest, annotations = corpora[corpus]
        argv = _COMMANDS[command]
        argvs.append([*argv[:1], "--manifest", str(manifest), "--annotations", str(annotations),
                      "--out", str(tmp_path / str(i)), *argv[1:]])
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    done = subprocess.run([python, "-c", _RUN_ALL, json.dumps(argvs)], env=env, capture_output=True,
                          text=True)
    assert done.stdout.strip() == str([cli.EXIT_OK] * len(argvs)), done.stderr
    written = {key: hashlib.sha256((tmp_path / str(i)).read_bytes()).hexdigest()
               for i, key in enumerate(_DIGESTS)}
    assert written == _DIGESTS


def test_output_bytes_do_not_depend_on_the_hash_seed(corpora, tmp_path):
    # str hashes, and so set and dict-of-set orders, change with the seed
    manifest, annotations = corpora["ascii"]
    files = ["--manifest", str(manifest), "--annotations", str(annotations)]
    runs = set()
    for seed in ("0", "1", "2", "3", "random"):
        report, records = tmp_path / f"{seed}.json", tmp_path / f"{seed}.jsonl"
        argvs = [["evaluate", *files, "--per-sample", "--group-by", "model,accent", "--out", str(report)],
                 ["align", *files, "--workers", "2", "--out", str(records)],
                 ["selfcheck"]]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1]), "PYTHONHASHSEED": seed}
        done = subprocess.run([sys.executable, "-c", _RUN_ALL, json.dumps(argvs)], env=env,
                              capture_output=True)
        assert done.stdout.endswith(f"{[cli.EXIT_OK] * 3}\n".encode()), done.stderr
        runs.add((hashlib.sha256(report.read_bytes()).hexdigest(),
                  hashlib.sha256(records.read_bytes()).hexdigest(), done.stdout))
    assert len(runs) == 1
    [(report, records, _)] = runs
    assert (report, records) == (_DIGESTS["ascii", "evaluate-json-per-sample-groups-w2"],
                                 _DIGESTS["ascii", "align-w2"])
