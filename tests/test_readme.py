"""README's library example runs, and its table of trace and decision
lines says what nocsim.simkernel.LINES renders."""

import pathlib
import re

from nocsim.simkernel import LINES

README = (pathlib.Path(__file__).resolve().parent.parent
          / "README.md").read_text(encoding="utf-8")


def _section(heading):
    """The README text under `heading`, up to the next heading."""
    body = README.split(f"\n{heading}\n", 1)[1]
    return re.split(r"\n#+ ", body, maxsplit=1)[0]


def test_library_example_runs(tmp_path, monkeypatch):
    code = re.search(r"```python\n(.*?)```", _section("## Library"),
                     re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})


# A README placeholder: an upper-case word (LOC, HEX, L1), or a
# comma-separated run of them ending in "..." (L1,L2,...).
_PLACEHOLDER = re.compile(r"\b[A-Z][A-Z0-9]*\b(?:,[A-Z][A-Z0-9]*)*(?:,\.\.\.)?")
_FIELD = re.compile(r"\{[^}]*\}")


def _matches(template, line):
    """Does a README line read as the template?  Each README placeholder
    must stand where the template has a {...} field; a field may also
    stand for the one value it always takes (an already-recorded
    decision is always permanent and ignored)."""
    literal = [re.escape(part) for part in _FIELD.split(template)]
    pattern = r"\S+".join(literal)
    return re.fullmatch(pattern, _PLACEHOLDER.sub("#", line)) is not None


def test_trace_table_matches_lines():
    files = {(True, True): "both", (True, False): "trace",
             (False, True): "decisions", (False, False): "none"}
    rows = {}
    for row in _section("### Trace and decision lines").splitlines():
        if not row.startswith("| `"):
            continue
        kinds, file, line, _ = (c.strip() for c in row.strip("|").split("|"))
        for kind in re.findall(r"`([^`]*)`", kinds):
            rows[kind] = (file, re.findall(r"`([^`]*)`", line))
    assert sorted(rows) == sorted(LINES)
    for kind, (file, lines) in rows.items():
        templates = [t for t in LINES[kind] if t is not None]
        assert file == files[tuple(t is not None for t in LINES[kind])], kind
        assert len(lines) == len(templates), kind
        for template, line in zip(templates, lines):
            assert _matches(template, line), (kind, template, line)
