"""The package's public names and its runtime dependencies."""
import json
import subprocess
import sys
from importlib import resources

import dymatch


def test_star_import_binds_every_public_name():
    # a name left in __all__ after its definition is gone fails here
    namespace = {}
    exec("from dymatch import *", namespace)
    assert all(namespace[name] is getattr(dymatch, name)
               for name in dymatch.__all__)
    assert len(set(dymatch.__all__)) == len(dymatch.__all__)


# imports dymatch and runs the CLI, then prints the exit codes and every
# top-level module it added beyond the interpreter's start-up set (site
# may load some before any import) that is neither dymatch, numpy nor in
# the standard library
_IMPORTS = """
import contextlib, io, json, sys
startup = set(sys.modules)
from dymatch import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
added = {name.partition(".")[0] for name in set(sys.modules) - startup}
print(json.dumps([codes, sorted(added - sys.stdlib_module_names
                                - {"dymatch", "numpy"})]))
"""


def test_runtime_imports_only_numpy(tmp_path):
    data = resources.files("dymatch").joinpath("data")
    files = {"target.json": "[0.3333333333333333, 0.3333333333333333, "
                            "0.3333333333333333]",
             "costs.json": '["0.18", "0.18", "0.31"]',
             "text.txt": "shannon the fu\n"}
    for name in ("facade_source_code.tsv", "facade_matcher_k3.tsv"):
        files[name] = data.joinpath(name).read_text()
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    path = {name: str(tmp_path / name) for name in files}
    instance = ["--target", path["target.json"], "--costs",
                path["costs.json"], "--budget", "0.2063"]
    argvs = [["match", *instance, "--block", "3"], ["optimal", *instance],
             ["encode", "--text", path["text.txt"], "--costs",
              path["costs.json"], "--source-code",
              path["facade_source_code.tsv"], "--matcher",
              path["facade_matcher_k3.tsv"]]]
    proc = subprocess.run([sys.executable, "-c", _IMPORTS,
                           json.dumps(argvs)],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [[0, 0, 0], []]
