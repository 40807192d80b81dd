"""The JSON codec lives in serialize, and the command line reaches it only
through its public names: cli.py reads no private `sz._` name and holds no
JSON text code (no string escaper of json's encoder, no compiled pattern)."""

import ast
from pathlib import Path

import fellbundles

CLI = Path(fellbundles.__file__).resolve().parent / "cli.py"
TEXT_CODE = {"encode_basestring_ascii", "encode_basestring"}


def _offences(path: Path) -> list[tuple[str, int]]:
    """(what, line) of every private serialize name and every piece of JSON
    text code in the code of one module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id == "sz" and node.attr.startswith("_"):
                out.append((f"sz.{node.attr}", node.lineno))
            elif node.value.id == "re" and node.attr == "compile":
                out.append(("re.compile", node.lineno))
            elif node.attr in TEXT_CODE:
                out.append((node.attr, node.lineno))
        elif isinstance(node, ast.Name) and node.id in TEXT_CODE:
            out.append((node.id, node.lineno))
        elif isinstance(node, ast.alias) and node.name.split(".")[-1] in TEXT_CODE:
            out.append((node.name, getattr(node, "lineno", 0)))
    return out


def test_cli_holds_no_json_text_code_and_no_private_serialize_name():
    assert _offences(CLI) == []


def test_the_scan_sees_each_kind_of_offence(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import re\n"
        "from json.encoder import encode_basestring_ascii\n"
        "from fellbundles import serialize as sz\n"
        "LEAF = re.compile('x')\n"
        "def f(a, b):\n"
        "    '''sz._same and re.compile in a docstring are not code'''\n"
        "    return sz._same(a, b), encode_basestring_ascii(a)\n")
    assert sorted(_offences(probe)) == [
        ("encode_basestring_ascii", 2), ("encode_basestring_ascii", 7), ("re.compile", 4),
        ("sz._same", 7)]
