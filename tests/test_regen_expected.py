import importlib.util
from pathlib import Path

from medwer.fixtures import fixture_path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "regen_expected.py"


def test_regenerated_expectations_equal_the_committed_file():
    spec = importlib.util.spec_from_file_location("regen_expected", SCRIPT)
    regen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(regen)
    text = regen.render(regen.build_expected())
    assert text.encode("utf-8") == fixture_path("expected.json").read_bytes()
