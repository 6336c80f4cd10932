"""The README's examples run: its library snippet and its config format.

CI fails here when the documented API or config format drifts from the code.
"""

import re
from pathlib import Path

from macfade.cli import load_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_block(language):
    (block,) = re.findall(rf"```{language}\n(.*?)```", README, flags=re.DOTALL)
    return block


def test_library_example_runs():
    namespace = {}
    exec(compile(readme_block("python"), "README.md", "exec"), namespace)
    rates = namespace["rates"]
    assert len(rates) == 2 and rates[0] > rates[1] > 0.0  # the larger weight wins more
    assert {"solution", "mc", "report"} <= namespace.keys()


def test_config_example_loads(tmp_path):
    (tmp_path / "trace.csv").write_text("h,F\n0.0,0.0\n0.5,0.3\n1.5,0.3\n4.0,1.0\n")
    config = tmp_path / "run.json"
    config.write_text(readme_block("json"))
    cfg = load_config(str(config))
    assert cfg.channel.n_users == 3
    assert cfg.channel.users[2].fading.h_knots == (0.0, 0.5, 1.5, 4.0)
