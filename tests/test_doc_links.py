"""The documentation link checker, and the docs it guards."""

import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from check_doc_links import dead_links, default_paths, main  # noqa: E402


class TestDocLinks:
    def test_shipped_docs_have_no_dead_links(self):
        assert dead_links(default_paths(ROOT)) == []

    def test_default_scan_covers_top_level_docs(self):
        paths = default_paths(ROOT)
        for page in sorted(ROOT.glob("*.md")):
            assert page in paths, f"{page.name} is not scanned"
        assert ROOT / "docs" / "performance.md" in paths

    def test_index_covers_every_docs_page(self):
        index = (ROOT / "docs" / "README.md").read_text()
        for page in sorted((ROOT / "docs").glob("*.md")):
            if page.name != "README.md":
                assert page.name in index, f"docs/README.md misses {page.name}"

    def test_checker_flags_a_dead_link(self, tmp_path):
        page = tmp_path / "page.md"
        page.write_text("see [gone](missing.md) and [ok](page.md)\n"
                        "[web](https://example.com) [anchor](#here)\n")
        dead = dead_links([page])
        assert [(line, target) for _, line, target in dead] \
            == [(1, "missing.md")]

    def test_checker_cli_exit_codes(self, tmp_path, capsys):
        good = tmp_path / "good.md"
        good.write_text("[self](good.md)\n")
        assert main([str(good)]) == 0
        bad = tmp_path / "bad.md"
        bad.write_text("[gone](nope.md#frag)\n")
        assert main([str(bad)]) == 1
        assert "dead link -> nope.md#frag" in capsys.readouterr().out
