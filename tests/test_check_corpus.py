"""Every seeded corpus violation fires exactly where marked.

``tests/fixtures/check_corpus`` holds one deliberately-broken snippet
per REP1xx concurrency rule plus a miniature server/client/proxy triple
with one seeded protocol drift per REP2xx check.  The assertions here
pin each rule to its ``# expect: REPnnn`` lines and *nowhere else* --
each snippet doubles as a negative fixture for the other rules -- and
confirm the real tree stays clean under the same packs.
"""

import re
from pathlib import Path

import pytest

from repro.check import ASYNC_RULES, check_conformance, lint_paths
from repro.check.lint import Linter, module_name_for
from repro.check.rules import DEFAULT_RULES

CORPUS = Path(__file__).resolve().parent / "fixtures" / "check_corpus"
PROTOCOL = CORPUS / "protocol"
SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

EXPECT = re.compile(r"#\s*expect:\s*(REP\d{3})")

RULE_FIXTURES = sorted(CORPUS.glob("rep1*.py"))


def expected_markers(path: Path) -> set[tuple[str, int]]:
    """``(code, line)`` pairs from the ``# expect:`` markers in a file."""
    return {
        (match.group(1), lineno)
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        for match in [EXPECT.search(line)]
        if match is not None
    }


# ----------------------------------------------------------------------
# REP1xx corpus
# ----------------------------------------------------------------------


def test_corpus_covers_every_async_rule():
    seeded = {path.name.split("_")[0].upper() for path in RULE_FIXTURES}
    assert seeded == {rule.code for rule in ASYNC_RULES}


@pytest.mark.parametrize(
    "path", RULE_FIXTURES, ids=lambda path: path.stem
)
def test_async_rules_fire_exactly_at_markers(path):
    linter = Linter(list(ASYNC_RULES))
    found = {
        (violation.code, violation.line)
        for violation in linter.check_source(
            path.read_text(),
            path=str(path),
            module=module_name_for(path),
        )
    }
    markers = expected_markers(path)
    assert markers, f"{path.name} has no # expect: markers"
    assert found == markers


def test_async_pack_is_clean_on_source_tree():
    violations = lint_paths(
        [SRC], rules=tuple(DEFAULT_RULES) + tuple(ASYNC_RULES)
    )
    assert violations == []


# ----------------------------------------------------------------------
# REP2xx protocol-drift corpus
# ----------------------------------------------------------------------


def conformance(
    client: str = "client_clean.py",
    proxy_server: str | None = None,
    router: str | None = None,
):
    proxy_kwargs = {}
    if proxy_server is not None and router is not None:
        proxy_kwargs = {
            "proxy_server_path": PROTOCOL / proxy_server,
            "proxy_router_path": PROTOCOL / router,
        }
    return check_conformance(
        PROTOCOL / "server.py", PROTOCOL / client, **proxy_kwargs
    )


def test_protocol_corpus_baseline_is_clean():
    assert (
        conformance(
            proxy_server="proxy_server.py", router="router_clean.py"
        )
        == []
    )


@pytest.mark.parametrize(
    ("client", "proxy_server", "router", "code", "drift_file"),
    [
        ("client_rep201.py", None, None, "REP201", "client_rep201.py"),
        ("client_rep202.py", None, None, "REP202", "client_rep202.py"),
        ("client_rep203.py", None, None, "REP203", "client_rep203.py"),
        (
            "client_clean.py",
            "proxy_server.py",
            "router_rep204.py",
            "REP204",
            "router_rep204.py",
        ),
        (
            "client_clean.py",
            "proxy_server_rep205.py",
            "router_clean.py",
            "REP205",
            "proxy_server_rep205.py",
        ),
    ],
)
def test_each_seeded_drift_is_detected(
    client, proxy_server, router, code, drift_file
):
    violations = conformance(client, proxy_server, router)
    assert [violation.code for violation in violations] == [code]
    assert violations[0].path.endswith(drift_file)
