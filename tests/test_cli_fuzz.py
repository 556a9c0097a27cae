"""Hostile corpus files at the CLI boundary.

Hypothesis mutates valid manifest and annotation files (the golden
fixtures) and runs cli.main in-process on the result. Whatever the bytes,
no exception escapes and the run exits 0 or 2: on 2, stderr ends in exactly
one `medwer: error:` line, after nothing but the documented WARNING lines
for skipped annotations (none under --strict); on 0, the output equals that
of the same command at --workers 2.
"""

import contextlib
import io

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import dump_corpus
from medwer import cli
from medwer.fixtures import load_golden

# JSON values that a parser may refuse or that no field accepts: nesting
# past any stack, integers past the interpreter's digit limit, non-finite
# numbers, lone and paired surrogate escapes, and ordinary values of the
# wrong type.
_FRAGMENTS = st.sampled_from([
    "[" * 50 + "]" * 50, "[" * 5000 + "]" * 5000, "[" * 100_000 + "]" * 100_000,
    '{"a": ' * 5000 + "1" + "}" * 5000,
    "9" * 20, "9" * 4300, "9" * 4301, "-" + "9" * 5000, "1e999", "-1e999", "0.5", "-1", "0",
    "NaN", "Infinity", "-Infinity",
    '"\\ud800"', '"a\\udc00b"', '"\\ud83d\\ude00"', '"\\u0000"', '"caf\\u00e9"', '""',
    "null", "true", "[]", "{}",
])
_KEYS = st.sampled_from(["id", "reference", "hypothesis", "model", "accent", "entities", "extra",
                         "text", "category", "begin", "end", "score", "\\ud800"])
_BYTES = st.sampled_from([b"\x00", b"\xff", b"\xc3", b"\xed\xa0\x80", b"\xef\xbb\xbf", b"\r", b"\n",
                          b'"', b"\\ud800", b"\\udc00", b"{", b"]", b","])

_MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 10**6), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 10**6)),
    st.tuples(st.just("insert"), st.integers(0, 10**6), _BYTES),
    # `, "key": fragment` before the n-th closing brace: an entity's or a
    # record's, so the field overrides one already there
    st.tuples(st.just("field"), st.integers(0, 10**6), _KEYS, _FRAGMENTS),
    st.tuples(st.just("bom")),
    st.tuples(st.just("crlf")),
)


def _mutate(data: bytes, mutation) -> bytes:
    op, *args = mutation
    if op == "flip":
        pos, bits = args[0] % len(data), args[1]
        return data[:pos] + bytes([data[pos] ^ bits]) + data[pos + 1:]
    if op == "truncate":
        return data[:args[0] % (len(data) + 1)]
    if op == "insert":
        pos = args[0] % (len(data) + 1)
        return data[:pos] + args[1] + data[pos:]
    if op == "field":
        braces = [i for i, byte in enumerate(data) if byte == ord("}")]
        pos = braces[args[0] % len(braces)]
        return data[:pos] + f', "{args[1]}": {args[2]}'.encode() + data[pos:]
    if op == "bom":
        return b"\xef\xbb\xbf" + data
    return data.replace(b"\n", b"\r\n")


def _run(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


# 150 examples from a fixed seed take a few seconds.
@seed(20240618)
@settings(max_examples=150, deadline=None, database=None)
@given(command=st.sampled_from([["evaluate", "--per-sample"], ["align"]]),
       strict=st.booleans(),
       mutations=st.lists(st.tuples(st.sampled_from(["manifest", "annotations"]), _MUTATION),
                          min_size=1, max_size=3))
def test_mutated_corpus_files_exit_zero_or_two_with_one_error_line(tmp_path_factory, command, strict,
                                                                   mutations):
    tmp = tmp_path_factory.mktemp("fuzz")
    files = dict(zip(("manifest", "annotations"), dump_corpus(tmp, *load_golden())))
    for name, mutation in mutations:
        path = files[name]
        data = path.read_bytes()
        if data:
            path.write_bytes(_mutate(data, mutation))
    argv = [command[0], "--manifest", str(files["manifest"]), "--annotations", str(files["annotations"]),
            *command[1:], *(["--strict"] if strict else [])]
    code, err = _run([*argv, "--out", str(tmp / "w1")])
    assert code in (cli.EXIT_OK, cli.EXIT_INGESTION), err
    if code == cli.EXIT_INGESTION:
        *warnings, message = err.splitlines()
        assert message.startswith("medwer: error: ")
        assert all(line.startswith("WARNING ") for line in warnings)
        assert not (strict and warnings)
        return
    assert _run([*argv, "--workers", "2", "--out", str(tmp / "w2")]) == (code, err)
    assert (tmp / "w2").read_bytes() == (tmp / "w1").read_bytes()
