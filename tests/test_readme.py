"""README's command-line walkthrough (steps 0-6) runs as written.

Each line of the walkthrough's `sh` blocks runs in a fresh directory: a
`fectek ...` line through `cli.main` (with `\\` continuations joined), a
`mkdir -p` line through `Path.mkdir`.  A `# ...` line is the output the
command before it must print.  Any other line fails the test, so a step
that needs a shell cannot creep into the walkthrough.  The file-format
section must state the version each binary format is written in, and the
package layout must name every module of the package.
"""

import io
import re
import shlex
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from fectek import checkpoint, index
from fectek.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def walkthrough_blocks() -> list[str]:
    """The `sh` blocks from the walkthrough heading up to the gradient check."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Command-line walkthrough", 1)[1]
    section = section.split("**Gradient check.**", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, flags=re.S)


def test_walkthrough_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    blocks = walkthrough_blocks()
    assert len(blocks) == 7  # synth, then steps 1-6
    printed = ""
    expected = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("# "):
                assert printed.strip() == line[2:]
                expected.append(line[2:])
                continue
            argv = shlex.split(line)
            if argv[:2] == ["mkdir", "-p"] and len(argv) > 2:
                for directory in argv[2:]:
                    Path(directory).mkdir(parents=True, exist_ok=True)
            elif argv[:1] == ["fectek"]:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = main(argv[1:])
                assert code == 0, f"{line!r} exited {code}: {err.getvalue()}"
                printed = out.getvalue()
            else:
                pytest.fail(f"walkthrough line is neither `fectek` nor `mkdir -p`: {line!r}")
    assert expected == ["MRR@10=1.000000 Recall@100=1.000000"]


def test_file_formats_state_the_current_versions():
    section = README.read_text(encoding="utf-8").split("## File formats", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert f"**Index** (`.idx`, version {index.VERSION})" in section
    assert f"**Checkpoint** (`.ftck`, version {checkpoint.VERSION})" in section


def test_package_layout_names_every_module():
    section = README.read_text(encoding="utf-8").split("## Package layout", 1)[1]
    block = re.search(r"```\n(.*?)```", section, flags=re.S).group(1)
    listed = re.findall(r"^  (\w+)\.py ", block, flags=re.M)
    modules = {p.stem for p in Path(index.__file__).parent.glob("*.py")}
    assert sorted(listed) == sorted(modules - {"__init__", "__main__"})
