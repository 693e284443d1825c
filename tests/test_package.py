import os
import subprocess
import sys
from pathlib import Path

import warpwatch


def test_exported_names_are_unique():
    assert len(warpwatch.__all__) == len(set(warpwatch.__all__))


def test_each_exported_name_is_its_defining_modules_object():
    for name in warpwatch.__all__:
        obj = getattr(warpwatch, name)
        # functions, classes and enums name the module that defines them; the version string is the package's own
        module = sys.modules[obj.__module__] if callable(obj) else warpwatch
        assert module.__name__.split(".")[0] == "warpwatch", name
        assert vars(module)[name] is obj, name
        if callable(obj):
            assert obj.__name__ == name


def test_dtw_stays_the_function_when_its_submodule_is_imported_first():
    # a fresh interpreter, so `import warpwatch.dtw` is the submodule's first import: a package that
    # resolved `dtw` lazily would then find the submodule bound over the function
    code = "import sys, warpwatch.dtw; print(warpwatch.dtw is sys.modules['warpwatch.dtw'].dtw)"
    src = str(Path(warpwatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert child.returncode == 0, child.stderr
    assert child.stdout == "True\n"

