"""The package holds what its commands run, and the README says what it holds.

One profiled in-process run of every subcommand and mode, in each output
format, records the code object of every Python call.  A function that no
run reaches must be named in ``ALLOWED`` with the reason it stays; a
function used by nothing but the tests belongs in ``tests/``.
"""

import functools
import importlib
import os
import pkgutil
import re
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

import pytest

import torsion_packet
from torsion_packet import cli

# Exempt by rule: the debugging display, and the guard of an immutable type.
EXEMPT = frozenset({"__repr__", "__setattr__"})

ALLOWED = {
    "tanratio.angles_up_to": "read by perfbench/tracechild.py to count the pairs scanned",
    "tanratio.normalize_by_galois": "wrapped by name in perfbench/tracechild.py",
    "exactnum.cyclotomic.CyclotomicElem.__init__": "builds the operands of perfbench/micro.py",
    "exactnum.quadratic.QuadraticElem.__mul__": "timed by perfbench/micro.py",
    "exactnum.quadratic.QuadraticElem.__eq__": "value semantics of an immutable number",
    "exactnum.quadratic.QuadraticElem.__hash__": "value semantics of an immutable number",
    "exactnum.cyclotomic.MinPoly.__eq__": "value semantics of an immutable polynomial",
}


def _package_modules():
    yield torsion_packet
    for info in pkgutil.walk_packages(torsion_packet.__path__, "torsion_packet."):
        yield importlib.import_module(info.name)


def _functions(obj):
    """The plain functions behind a namespace entry: lru_cache, property,
    cached_property, classmethod and staticmethod unwrapped."""
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    if isinstance(obj, property):
        return [f for f in (obj.fget, obj.fset, obj.fdel) if f is not None]
    if isinstance(obj, functools.cached_property):
        return [obj.func]
    if isinstance(obj, functools._lru_cache_wrapper):
        obj = obj.__wrapped__
    return [obj] if isinstance(obj, types.FunctionType) else []


def defined_functions():
    """{code object: "module.qualname"} for every function defined in a
    module file of the package, at module level or in a class.  The
    methods that ``typing.NamedTuple`` generates (``__new__``, ``_replace``,
    ...) have no such file and are left out."""
    found = {}
    for module in _package_modules():
        prefix = module.__name__.partition(".")[2]
        namespaces = [vars(module)]
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                namespaces.append(vars(value))
        for namespace in namespaces:
            for value in namespace.values():
                for fn in _functions(value):
                    code = fn.__code__
                    if code.co_filename == module.__file__:
                        found[code] = f"{prefix}.{fn.__qualname__}".lstrip(".")
    return found


def _lru_caches():
    for module in _package_modules():
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper):
                yield value


def test_every_function_is_reached_by_a_command(capsys, tmp_path):
    shipped = resources.files("torsion_packet").joinpath("data/table1.json")
    runs = [
        ["tangent-ratios", "--degree", "2", "--max-denominator", "12"],
        ["tangent-ratios", "--degree", "4", "--max-denominator", "12", "--non-units-only",
         "--format", "csv"],
        ["verify-table1", "--max-denominator", "12", "--ground-truth", str(shipped),
         "--format", "json"],
        ["lshape", "enumerate", "--b-max", "20", "--format", "csv"],
        ["lshape", "unit-case", "--format", "json"],
        ["lshape", "exclude", "--output", str(tmp_path / "exclude.txt")],
        ["stratum2", "--torsion-order", "2"],
        ["stratum2", "--torsion-order", "12", "--format", "json"],
        ["decagon", "verify", "--format", "csv"],
        ["decagon", "exclude-r", "--format", "json"],
        ["decagon", "differential"],
    ]
    # A cached body runs only on its first call, so start from empty caches.
    for cache in _lru_caches():
        cache.cache_clear()
    reached = set()

    def profile(frame, event, arg):
        if event == "call":
            reached.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [0] * len(runs)

    defined = defined_functions()
    unreached = {
        name
        for code, name in defined.items()
        if code not in reached and name.rpartition(".")[2] not in EXEMPT
    }
    stray = sorted(unreached - ALLOWED.keys())
    assert not stray, f"reached by no command: {stray}"
    gone = sorted(ALLOWED.keys() - set(defined.values()))
    assert not gone, f"allowlisted but no longer defined: {gone}"
    used = sorted(ALLOWED.keys() - unreached)
    assert not used, f"allowlisted but reached by a command: {used}"


def test_readme_names_every_cache():
    # The concurrency paragraph of the README lists each lru_cache as
    # `module.function` and each cached_property as `Class.property`.  The
    # decorator lines of the source are counted too, so that no cache
    # hides where the namespace walk does not look.
    lru, cached, decorated = set(), set(), 0
    for module in _package_modules():
        source = Path(module.__file__).read_text()
        decorated += len(re.findall(r"^\s*@(?:functools\.)?(?:lru_cache|cached_property)\b", source, re.M))
        for value in vars(module).values():
            if isinstance(value, functools._lru_cache_wrapper) and value.__module__ == module.__name__:
                lru.add(f"{module.__name__.partition('.')[2]}.{value.__name__}")
            if isinstance(value, type) and value.__module__ == module.__name__:
                cached |= {
                    f"{value.__name__}.{name}"
                    for name, attr in vars(value).items()
                    if isinstance(attr, functools.cached_property)
                }
    assert decorated == len(lru) + len(cached)

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()

    def listed(kind):
        bullet = re.search(rf"^\* the `functools\.{kind}`s (.*?)(?=^\* |\n\n)", readme, re.M | re.S)
        return set(re.findall(r"`(\w+(?:\.\w+)+)`", bullet.group(1)))

    assert listed("lru_cache") == lru
    assert listed("cached_property") == cached


def test_readme_names_every_immutable_class():
    # The immutability paragraph of the README lists each __slots__ class
    # whose __setattr__ raises, so that it names no deleted class and
    # misses no new one.
    immutable = set()
    for module in _package_modules():
        for value in vars(module).values():
            if not (isinstance(value, type) and value.__module__ == module.__name__):
                continue
            setter = vars(value).get("__setattr__")
            if "__slots__" in vars(value) and setter is not None:
                with pytest.raises(AttributeError, match="immutable"):
                    setter(None, "name", None)
                immutable.add(value.__name__)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sentence = re.search(r"`__slots__` classes\s+that\s+refuse\s+attribute\s+assignment:(.*?)\.", readme, re.S)
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == immutable


def _loaded_after(modules, script):
    """Which of ``modules`` a fresh interpreter holds after running
    ``script``.  -S keeps the .pth files of site-packages out of it."""
    src = Path(torsion_packet.__file__).resolve().parents[1]
    loaded = subprocess.run(
        [sys.executable, "-S", "-c",
         f"{script}\nimport sys; print(sorted({set(modules)!r} & set(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    return loaded.stdout


def _loaded_by_cli_import(modules, argv=None):
    """Which of ``modules`` a fresh interpreter holds after importing the
    CLI and, if ``argv`` is given, running it through ``main`` with the
    report written to a buffer."""
    script = "import torsion_packet.cli"
    if argv is not None:
        script += (
            "\nimport contextlib, io"
            "\nwith contextlib.redirect_stdout(io.StringIO()):"
            f"\n    assert torsion_packet.cli.main({argv!r}) == 0"
        )
    return _loaded_after(modules, script)


def test_import_needs_no_dataclasses_or_inspect():
    # Records are NamedTuples and validated values are __slots__ classes,
    # so importing the CLI pulls in neither module.
    assert _loaded_by_cli_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_needs_no_pathlib_or_importlib_resources():
    # The shipped table and the --output path are read with open and os.path.
    assert _loaded_by_cli_import({"pathlib", "importlib.resources"}) == "[]\n"


def test_import_needs_no_csv():
    # Only the CSV renderer imports csv, when it runs.
    assert _loaded_by_cli_import({"csv"}) == "[]\n"


_TANRATIO = "torsion_packet.tanratio"


def test_cli_import_loads_lshape_and_stablefiber_but_not_tanratio():
    # perfbench/tracechild.py's install looks lshape and stablefiber up in
    # sys.modules right after importing the CLI, so both load with it.
    # tanratio loads only in the commands that read a tangent ratio.
    modules = {_TANRATIO, "torsion_packet.lshape", "torsion_packet.stablefiber"}
    assert _loaded_by_cli_import(modules) == "['torsion_packet.lshape', 'torsion_packet.stablefiber']\n"


@pytest.mark.parametrize(
    "argv, loads",
    [
        pytest.param(argv, loads, id="-".join(argv[:2]))
        for argv, loads in (
            (["lshape", "enumerate", "--b-max", "20"], False),
            (["lshape", "unit-case"], False),
            (["decagon", "verify"], False),
            (["decagon", "exclude-r"], False),
            (["decagon", "differential"], False),
            (["lshape", "exclude"], True),
        )
    ],
)
def test_only_commands_that_read_a_tangent_ratio_load_tanratio(argv, loads):
    assert _loaded_by_cli_import({_TANRATIO}, argv) == (f"[{_TANRATIO!r}]\n" if loads else "[]\n")


def test_stablefiber_does_not_load_tanratio():
    # The torsion solver takes i_tan and tan_conductor from exactnum.
    assert _loaded_after({_TANRATIO}, "import torsion_packet.stablefiber") == "[]\n"
