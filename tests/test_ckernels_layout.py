"""The ctypes mirrors in :mod:`repro.cluster._ckernels` against the C source.

Six structs cross the ctypes boundary, each written twice: once in
``_C_SOURCE`` and once as a ``ctypes.Structure``.  A mirror that drifts from
its C twin (a reordered, retyped or missing member) can still pass the
byte-identity tests when the slots it confuses happen to hold the same
values.  So this compiles ``_C_SOURCE`` with a ``main`` that prints each
struct's ``sizeof`` and every member's ``offsetof`` and compares them with
the mirrors', member names and types in order included; and it counts each
exported C function's parameters against its ``argtypes``.  It skips
without a C compiler.
"""

import ctypes
import re
import shutil
import subprocess

import pytest

from repro.cluster import _ckernels

#: Each C struct that crosses the boundary, and its ctypes mirror.
MIRRORS = {
    "batch_pool_t": _ckernels.BatchPool,
    "stretch_t": _ckernels.Stretch,
    "moments_t": _ckernels.Moments,
    "bin_table_t": _ckernels.BinTable,
    "disk_t": _ckernels.Disk,
    "eager_run_t": _ckernels.EagerRun,
}

#: The ctypes type of each non-pointer C member type in those structs.
C_TYPES = {
    "double": ctypes.c_double,
    "int64_t": ctypes.c_int64,
    "std_exp_fn": ctypes.c_void_p,
    "disk_t": _ckernels.Disk,
}

pytestmark = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler available")


def c_members(name):
    """``(member, ctypes type)`` of ``typedef struct { ... } name;``, in
    order; every pointer is a ``c_void_p``."""
    match = re.search(r"typedef struct \{([^}]*)\}\s*" + name + ";", _ckernels._C_SOURCE)
    assert match, f"no typedef struct {name} in _C_SOURCE"
    body = re.sub(r"/\*.*?\*/", "", match.group(1), flags=re.S)
    members = []
    for decl in filter(str.strip, body.split(";")):
        tokens = re.findall(r"\w+|\*", decl)
        members.append((tokens[-1], ctypes.c_void_p if "*" in tokens else C_TYPES[tokens[-2]]))
    return members


def exported_functions():
    """``{name: parameter count}`` of every non-static function defined in
    ``_C_SOURCE``."""
    found = re.findall(
        r"^(?!static|typedef)\w+\s+\**(\w+)\(([^)]*)\)\s*\{", _ckernels._C_SOURCE, re.M
    )
    return {name: len([p for p in params.split(",") if p.strip()]) for name, params in found}


@pytest.fixture(scope="module")
def c_layout(tmp_path_factory):
    """``{struct: {"sizeof": n, member: offset, ...}}`` as the C compiler
    lays the structs out."""
    lines = []
    for struct in MIRRORS:
        lines.append(f'    printf("{struct} sizeof %zu\\n", sizeof({struct}));')
        for member, _type in c_members(struct):
            lines.append(
                f'    printf("{struct} {member} %zu\\n", offsetof({struct}, {member}));'
            )
    program = (
        _ckernels._C_SOURCE
        + "\n#include <stddef.h>\n#include <stdio.h>\n\nint main(void) {\n"
        + "\n".join(lines)
        + "\n    return 0;\n}\n"
    )
    work = tmp_path_factory.mktemp("layout")
    source, binary = work / "layout.c", work / "layout"
    source.write_text(program)
    subprocess.run(
        ["cc", "-O0", "-o", str(binary), str(source), "-lm"],
        check=True,
        capture_output=True,
        timeout=120,
    )
    output = subprocess.run([str(binary)], check=True, capture_output=True, text=True).stdout
    layout = {}
    for line in output.splitlines():
        struct, member, value = line.split()
        layout.setdefault(struct, {})[member] = int(value)
    return layout


@pytest.mark.parametrize("struct", MIRRORS)
def test_mirror_matches_the_c_struct(c_layout, struct):
    mirror = MIRRORS[struct]
    assert mirror._fields_ == c_members(struct)
    got = {"sizeof": ctypes.sizeof(mirror)}
    got.update((name, getattr(mirror, name).offset) for name, _type in mirror._fields_)
    assert got == c_layout[struct]


def test_argtypes_match_the_c_parameter_counts(monkeypatch):
    monkeypatch.delenv(_ckernels.CKERNELS_ENV_VAR, raising=False)
    lib = _ckernels.load()
    if lib is None:
        pytest.skip("the kernel library did not build")
    counts = exported_functions()
    assert "reserve_stretch" in counts and "disk_services" in counts
    got = {name: len(getattr(lib, name).argtypes or ()) for name in counts}
    assert got == counts
