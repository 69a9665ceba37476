"""README's examples run as written: the Python example, and every
``ntcpfields ...`` line of the command-line block, with the JSON config
block as ``config.json``, each exiting 0.  A line that fails means the
README drifted from the code."""

import pathlib
import re
import shlex

from ntcpfields import cli

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _blocks(language):
    """The fenced code blocks of README in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def _commands():
    """Every ``ntcpfields`` line of README's shell blocks, continuations
    joined, as the argv after the program name."""
    lines = "\n".join(_blocks("sh")).replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("ntcpfields ")]


def test_python_example_runs(tmp_path, monkeypatch):
    (example,) = _blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(example, "README.md", "exec"), {})


def test_command_line_block_runs(tmp_path, monkeypatch, capsys):
    (config,) = _blocks("json")
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(config)
    commands = _commands()
    assert [argv[0] for argv in commands] == [
        "ntcp", "threshold", "dose", "dose", "simulate", "estimate", "experiment"]
    for argv in commands:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)
    assert (tmp_path / "report.csv").read_text().startswith("n,cube_size,mode,")
