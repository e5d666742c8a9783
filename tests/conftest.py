import numpy as np
import pytest

from longctx import ModelConfig, init_model


def pytest_terminal_summary(terminalreporter):
    """Print the lines tests record with ``record_property("finding", line)`` (C11's detail,
    C12's finding) after the run, where ``-q`` does not capture them away."""
    findings = [value for reports in terminalreporter.stats.values() for report in reports
                if getattr(report, "when", None) == "call"
                for name, value in report.user_properties if name == "finding"]
    if findings:
        terminalreporter.write_sep("-", "acceptance findings")
        for line in findings:
            terminalreporter.write_line(line)


@pytest.fixture
def tiny_absolute():
    cfg = ModelConfig(
        hidden_size=16, n_layers=2, n_heads=2, vocab_size=64,
        original_context=8, position_mode="absolute", init_seed=3,
    )
    return init_model(cfg)


@pytest.fixture
def tiny_rotary():
    cfg = ModelConfig(
        hidden_size=16, n_layers=2, n_heads=2, vocab_size=64,
        original_context=8, position_mode="rotary", init_seed=3,
    )
    return init_model(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
