"""Tests for the API surfaces: REST router, CLI, diff renderers."""

import json

import pytest

from repro.api.cli import main as cli_main
from repro.api.diffview import render_diff_html, render_diff_text, render_history_text
from repro.api.rest import Router
from repro.db import ForkBase
from repro.table import DataTable


@pytest.fixture
def router(engine):
    engine.put("config", {"mode": "fast", "level": "3"})
    return Router(engine)


class TestRestRouter:
    def test_list_keys(self, router):
        response = router.request("GET", "/v1/keys")
        assert response.ok
        assert response.body["keys"] == ["config"]

    def test_get_object(self, router):
        response = router.request("GET", "/v1/obj/config")
        assert response.ok
        assert response.body["value"] == {"mode": "fast", "level": "3"}
        assert response.body["type"] == "map"
        assert len(response.body["version"]) == 52

    def test_put_creates_version(self, router):
        response = router.request(
            "PUT", "/v1/obj/config", body={"value": {"mode": "slow"}, "message": "m"}
        )
        assert response.status == 201
        assert router.request("GET", "/v1/obj/config").body["value"] == {"mode": "slow"}

    def test_put_requires_value(self, router):
        assert router.request("PUT", "/v1/obj/config", body={}).status == 400

    def test_get_by_version(self, router):
        v1 = router.request("GET", "/v1/obj/config").body["version"]
        router.request("PUT", "/v1/obj/config", body={"value": {"mode": "new"}})
        response = router.request("GET", "/v1/obj/config", params={"version": v1})
        assert response.body["value"]["mode"] == "fast"

    def test_meta_and_history(self, router):
        router.request("PUT", "/v1/obj/config", body={"value": {"mode": "x"}})
        meta = router.request("GET", "/v1/obj/config/meta")
        assert meta.ok and meta.body["meta"]["type"] == "map"
        history = router.request("GET", "/v1/obj/config/history")
        assert len(history.body["versions"]) == 2
        limited = router.request(
            "GET", "/v1/obj/config/history", params={"limit": "1"}
        )
        assert len(limited.body["versions"]) == 1

    def test_branch_lifecycle(self, router):
        create = router.request(
            "POST", "/v1/obj/config/branches", body={"name": "dev"}
        )
        assert create.status == 201
        listed = router.request("GET", "/v1/obj/config/branches")
        assert listed.body["branches"] == ["master", "dev"]
        deleted = router.request("DELETE", "/v1/obj/config/branches/dev")
        assert deleted.ok

    def test_diff_and_merge(self, router):
        router.request("POST", "/v1/obj/config/branches", body={"name": "dev"})
        router.request(
            "PUT", "/v1/obj/config",
            params={"branch": "dev"},
            body={"value": {"mode": "fast", "level": "9"}},
        )
        diff = router.request(
            "GET", "/v1/obj/config/diff", params={"from": "master", "to": "dev"}
        )
        assert diff.body["changed"] == {"level": ["3", "9"]}
        merge = router.request(
            "POST", "/v1/obj/config/merge", body={"from_branch": "dev"}
        )
        assert merge.ok
        assert router.request("GET", "/v1/obj/config").body["value"]["level"] == "9"

    def test_merge_conflict_409(self, router):
        router.request("POST", "/v1/obj/config/branches", body={"name": "dev"})
        router.request("PUT", "/v1/obj/config", body={"value": {"mode": "a"}})
        router.request(
            "PUT", "/v1/obj/config", params={"branch": "dev"}, body={"value": {"mode": "b"}}
        )
        conflict = router.request(
            "POST", "/v1/obj/config/merge", body={"from_branch": "dev"}
        )
        assert conflict.status == 409
        resolved = router.request(
            "POST",
            "/v1/obj/config/merge",
            body={"from_branch": "dev", "strategy": "theirs"},
        )
        assert resolved.ok

    def test_verify_route(self, router):
        response = router.request("GET", "/v1/obj/config/verify")
        assert response.ok and response.body["valid"]

    def test_missing_key_404(self, router):
        assert router.request("GET", "/v1/obj/ghost").status == 404

    def test_unknown_route_404(self, router):
        assert router.request("GET", "/v1/nope").status == 404
        assert router.request("GET", "/v2/keys").status == 404

    def test_diff_requires_to(self, router):
        assert router.request("GET", "/v1/obj/config/diff").status == 400

    def test_bad_merge_strategy(self, router):
        router.request("POST", "/v1/obj/config/branches", body={"name": "dev"})
        response = router.request(
            "POST", "/v1/obj/config/merge",
            body={"from_branch": "dev", "strategy": "coin-flip"},
        )
        assert response.status == 400


class TestCli:
    def _run(self, tmp_path, capsys, *argv):
        code = cli_main(["--data-dir", str(tmp_path / "db"), *argv])
        captured = capsys.readouterr()
        return code, captured.out

    def test_put_get_list(self, tmp_path, capsys):
        code, out = self._run(tmp_path, capsys, "put", "k", "--json", '{"a": "1"}')
        assert code == 0 and "k@master" in out
        code, out = self._run(tmp_path, capsys, "get", "k")
        assert code == 0 and json.loads(out) == {"a": "1"}
        code, out = self._run(tmp_path, capsys, "list")
        assert out.strip() == "k"

    def test_string_and_blob_values(self, tmp_path, capsys):
        code, _ = self._run(tmp_path, capsys, "put", "s", "--string", "hello")
        assert code == 0
        code, out = self._run(tmp_path, capsys, "get", "s")
        assert json.loads(out) == "hello"

    def test_branch_diff_merge_flow(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "k", "--json", '{"a": "1", "b": "2"}')
        code, out = self._run(tmp_path, capsys, "branch", "k", "dev")
        assert code == 0 and "created dev" in out
        self._run(
            tmp_path, capsys, "put", "k", "--json", '{"a": "1", "b": "9"}',
            "--branch", "dev",
        )
        code, out = self._run(tmp_path, capsys, "diff", "k", "master", "dev")
        assert code == 0 and "~ b'b'" in out
        code, out = self._run(tmp_path, capsys, "merge", "k", "dev")
        assert code == 0
        code, out = self._run(tmp_path, capsys, "get", "k")
        assert json.loads(out)["b"] == "9"

    def test_history_and_head(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "k", "--json", '"v1"', "-m", "first")
        self._run(tmp_path, capsys, "put", "k", "--json", '"v2"', "-m", "second")
        code, out = self._run(tmp_path, capsys, "history", "k")
        assert out.count("version ") == 2 and "second" in out
        code, out = self._run(tmp_path, capsys, "head", "k")
        assert len(out.strip()) == 52

    def test_csv_flow(self, tmp_path, capsys):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text("id,name\n1,apple\n2,banana\n", encoding="utf-8")
        code, out = self._run(
            tmp_path, capsys, "load-csv", "fruits", str(csv_path), "--pk", "id"
        )
        assert code == 0 and "loaded 2 rows" in out
        code, out = self._run(tmp_path, capsys, "export", "fruits")
        assert "banana" in out
        code, out = self._run(
            tmp_path, capsys, "select", "fruits", "--where", "name=apple"
        )
        assert json.loads(out.strip()) == {"id": "1", "name": "apple"}
        code, out = self._run(tmp_path, capsys, "stat", "fruits", "id")
        assert json.loads(out)["numeric"] is True

    def test_verify_command(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "k", "--json", '"v"')
        code, out = self._run(tmp_path, capsys, "verify", "k")
        assert code == 0 and "VALID" in out

    def test_error_exit_code(self, tmp_path, capsys):
        code = cli_main(["--data-dir", str(tmp_path / "db"), "get", "ghost"])
        assert code == 1

    def test_malformed_json_is_a_clean_error(self, tmp_path, capsys):
        code = cli_main(["--data-dir", str(tmp_path / "db"), "put", "k", "--json", "{bad"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: invalid JSON: ")

    def test_merge_conflict_exit_code(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "k", "--json", '"base"')
        self._run(tmp_path, capsys, "branch", "k", "dev")
        self._run(tmp_path, capsys, "put", "k", "--json", '"left"')
        self._run(tmp_path, capsys, "put", "k", "--json", '"right"', "--branch", "dev")
        code = cli_main(["--data-dir", str(tmp_path / "db"), "merge", "k", "dev"])
        assert code == 2


class TestDiffRenderers:
    @pytest.fixture
    def table_diff(self, engine):
        csv = "id,name,qty\n1,apple,10\n2,banana,20\n"
        table, _ = DataTable.load_csv(engine, "ds", csv, primary_key="id")
        table.branch("dev")
        table.update_cells("1", {"qty": "11"}, branch="dev")
        table.upsert_rows([{"id": "3", "name": "cherry", "qty": "30"}], branch="dev")
        table.delete_rows(["2"], branch="dev")
        return table.diff("master", "dev")

    def test_text_rendering(self, table_diff):
        text = render_diff_text(table_diff, "ds")
        assert "+1 -1 ~1" in text
        assert "+ 3" in text and "- 2" in text and "~ 1" in text
        assert "'10' -> '11'" in text

    def test_html_rendering(self, table_diff):
        html = render_diff_html(table_diff, "ds")
        assert html.startswith("<!DOCTYPE html>")
        assert "cherry" in html
        assert "class='old'" in html and "class='new'" in html

    def test_html_escapes(self, engine):
        csv = 'id,note\n1,"<script>alert(1)</script>"\n'
        table, _ = DataTable.load_csv(engine, "x", csv, primary_key="id")
        table.branch("dev")
        table.update_cells("1", {"note": "<b>safe</b>"}, branch="dev")
        html = render_diff_html(table.diff("master", "dev"), "x")
        assert "<script>" not in html

    def test_history_rendering(self, engine):
        engine.put("k", "v1", message="first")
        engine.put("k", "v2", message="second")
        text = render_history_text(engine.history("k"))
        assert text.count("version ") == 2
        assert "second" in text and "first" in text


class TestCliExtensions:
    def _run(self, tmp_path, capsys, *argv):
        code = cli_main(["--data-dir", str(tmp_path / "db"), *argv])
        captured = capsys.readouterr()
        return code, captured.out

    def test_diff_datasets_command(self, tmp_path, capsys):
        csv_path = tmp_path / "a.csv"
        csv_path.write_text("id,name\n1,apple\n2,banana\n", encoding="utf-8")
        csv_path_2 = tmp_path / "b.csv"
        csv_path_2.write_text("id,name\n1,apple\n2,cherry\n", encoding="utf-8")
        self._run(tmp_path, capsys, "load-csv", "d1", str(csv_path), "--pk", "id")
        self._run(tmp_path, capsys, "load-csv", "d2", str(csv_path_2), "--pk", "id")
        code, out = self._run(tmp_path, capsys, "diff-datasets", "d1", "d2")
        assert code == 0
        assert "~ 2" in out and "'banana' -> 'cherry'" in out

    def test_gc_dry_run(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "keep", "--json", '"v"')
        self._run(tmp_path, capsys, "put", "drop", "--json", '"x"')
        code, out = self._run(tmp_path, capsys, "rename-branch", "drop", "master", "gone")
        # deleting the only branch drops the key entirely
        eng_dir = str(tmp_path / "db")
        from repro.db import ForkBase
        with ForkBase.open(eng_dir) as engine:
            engine.delete_branch("drop", "gone")
        code, out = self._run(tmp_path, capsys, "gc", "--dry-run")
        assert code == 0 and "reclaimable=" in out and "[dry run]" in out

    def test_gc_preserves_pack_layout(self, tmp_path, capsys):
        # Regression: gc used to compact every durable backend into a
        # FileStore layout, silently converting a pack DB on sweep.
        eng_dir = str(tmp_path / "db")
        from repro.db import ForkBase
        from repro.store import physical_store
        from repro.store.packstore import PackStore
        with ForkBase.open(eng_dir, backend="pack") as engine:
            engine.put("keep", {"a": "1"})
            engine.put("drop", {"big": "x"})
            engine.delete_branch("drop", "master")
        code, out = self._run(tmp_path, capsys, "gc")
        assert code == 0 and "[compacted]" in out
        assert (tmp_path / "db" / "chunks" / "packs").is_dir()
        with ForkBase.open(eng_dir) as engine:
            assert isinstance(physical_store(engine.store), PackStore)
        code, out = self._run(tmp_path, capsys, "get", "keep")
        assert code == 0 and json.loads(out) == {"a": "1"}
        code, _ = self._run(tmp_path, capsys, "verify", "keep")
        assert code == 0

    def test_gc_compacts_file_store(self, tmp_path, capsys):
        self._run(tmp_path, capsys, "put", "keep", "--json", '{"a": "1"}')
        self._run(tmp_path, capsys, "put", "drop", "--json", '{"big": "x"}')
        eng_dir = str(tmp_path / "db")
        from repro.db import ForkBase
        with ForkBase.open(eng_dir) as engine:
            engine.delete_branch("drop", "master")
        code, out = self._run(tmp_path, capsys, "gc")
        assert code == 0 and "[compacted]" in out
        # Data still served after compaction.
        code, out = self._run(tmp_path, capsys, "get", "keep")
        assert code == 0 and json.loads(out) == {"a": "1"}
        code, _ = self._run(tmp_path, capsys, "verify", "keep")
        assert code == 0
