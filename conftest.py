"""Repo-wide pytest options and markers (a root conftest so both exist
whichever directory a run names)."""


def pytest_addoption(parser):
    parser.addoption(
        "--write-results", action="store_true", default=False,
        help="let the benchmarks rewrite benchmarks/results/*.txt "
             "(default: print the figure only, leaving the tree clean)")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a long-running test (deselect with -m 'not slow')")
