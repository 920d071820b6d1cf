"""Golden reports: each protocol's rows of ``golden_records.csv``, rendered in every format.

The stored renderings were produced by ``python tests/test_golden_reports.py``;
a test here re-renders them and compares bytes, so any change to a report's
text has to be a deliberate regeneration.
"""

from pathlib import Path

from shiftbench.evaluation import read_records_csv
from shiftbench.protocols import PROTOCOLS
from shiftbench.reporting import render_markdown, render_plotdata, render_table_csv

GOLDEN_RECORDS = Path(__file__).with_name("golden_records.csv")
GOLDEN_DIR = Path(__file__).with_name("golden_reports")
RENDERERS = {"markdown": render_markdown, "csv": render_table_csv, "plotdata": render_plotdata}


def protocol_records_csv(protocol: str, path: Path) -> Path:
    """Writes the header and ``protocol``'s rows of the golden records to ``path``."""
    lines = GOLDEN_RECORDS.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(
        lines[0] + "".join(line for line in lines[1:] if line.startswith(protocol + ",")),
        encoding="utf-8",
    )
    return path


def render_all(workdir: Path) -> dict[str, str]:
    """File name -> rendering, for every protocol and format."""
    out = {}
    for protocol in PROTOCOLS:
        records = read_records_csv(protocol_records_csv(protocol, workdir / f"{protocol}.csv"))
        for fmt, render in RENDERERS.items():
            out[f"{protocol}.{fmt}"] = render(records)
    return out


def test_reports_match_golden_files(tmp_path):
    rendered = render_all(tmp_path)
    assert sorted(rendered) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for name, text in rendered.items():
        assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes(), name


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in render_all(Path(tmp)).items():
            (GOLDEN_DIR / name).write_bytes(text.encode("utf-8"))
            print(f"wrote {GOLDEN_DIR / name}")
