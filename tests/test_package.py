"""The package's public surface: everything exported is importable."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import tvec


def test_every_exported_name_resolves():
    missing = [name for name in tvec.__all__ if not hasattr(tvec, name)]
    assert missing == []
    assert len(set(tvec.__all__)) == len(tvec.__all__)


def test_import_compiles_little_generated_code():
    """Every command pays for `import tvec` first.  Node and record
    classes compile their methods once per field shape (`syntax.frozen`),
    so the import compiles few strings; a class made the way a plain
    frozen dataclass is made compiles five or six."""
    src = str(Path(tvec.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))
    script = textwrap.dedent("""
        import sys
        count = 0
        def hook(event, args):
            global count
            if event == "compile" and args[1] in ("<string>", "<node>"):
                count += 1
        sys.addaudithook(hook)
        import tvec, tvec.cli
        print(count)
        """)
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= 80
