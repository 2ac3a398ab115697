import os
import subprocess
import sys
from pathlib import Path

import jxcircuit
from jxcircuit.svgplot import escape, scatter_svg


def test_escape_writes_markup_characters_as_entities():
    assert escape("a & b < c > d &amp;") == "a &amp; b &lt; c &gt; d &amp;amp;"


def test_labels_are_escaped():
    svg = scatter_svg({"k<4 & m>3": ([1.0], [2.0])}, title="<t>", xlabel="x", ylabel="y")
    assert "k&lt;4 &amp; m&gt;3" in svg and "&lt;t&gt;" in svg


def test_import_loads_no_network_modules():
    # escaping a label takes three replacements, not xml.sax with urllib,
    # http and ssl behind it; and only a run on worker processes needs
    # multiprocessing, with socket behind it
    src = str(Path(jxcircuit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import sys, jxcircuit; "
            "print([m for m in ('xml.sax', 'urllib.request', 'http.client', 'ssl', "
            "'multiprocessing', 'socket') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
