import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape as sax_escape

from sentprob.svgplot import escape

SRC = Path(__file__).resolve().parents[1] / "src"


def test_escape_matches_saxutils():
    cases = [
        "",
        "plain label",
        "a & b",
        "x < y > z",
        "&lt; stays escaped once: &amp;",
        "quotes \" and ' are left alone",
        "<&>\"'&&<<>>",
        "(a0 -> !a1) & a2",
    ]
    for text in cases:
        assert escape(text) == sax_escape(text), text


def loaded_after(code: str, modules: tuple[str, ...]) -> str:
    """The sorted list, as printed, of those modules that a fresh interpreter
    has loaded after running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    probe = f"\nimport sys\nprint(sorted(m for m in {modules!r} if m in sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + probe], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


LOAD_STANDARD = (
    "import sentprob.cli\n"
    "from sentprob.harness import load_config\n"
    "from importlib import resources\n"
    "load_config(resources.files('sentprob') / 'configs' / 'standard.ini')"
)


def test_cli_import_loads_no_network_modules():
    # The CLI and config loading pull in neither xml.sax nor the urllib,
    # http and email packages it would bring along.
    modules = ("xml.sax.saxutils", "urllib.request", "http.client", "email")
    assert loaded_after(LOAD_STANDARD, modules) == "[]"


def test_import_loads_no_dataclass_machinery():
    # Every record is a NamedTuple or a slotted class, so neither the CLI with
    # config loading nor the estimator alone pulls in dataclasses, or the
    # inspect, ast and tokenize modules it would bring along.
    modules = ("dataclasses", "inspect")
    assert loaded_after("pass", modules) == "[]"
    assert loaded_after(LOAD_STANDARD, modules) == "[]"
    assert loaded_after("from sentprob import estimator", modules) == "[]"
