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


def test_cli_import_loads_no_network_modules():
    # The CLI and config loading pull in neither xml.sax nor the urllib,
    # http and email packages it would bring along.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = (
        "import sys, sentprob.cli\n"
        "from sentprob.harness import load_config\n"
        "from importlib import resources\n"
        "load_config(resources.files('sentprob') / 'configs' / 'standard.ini')\n"
        "print(sorted(m for m in ('xml.sax.saxutils', 'urllib.request', 'http.client', 'email')"
        " if m in sys.modules))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
