"""README's first example runs as written, with the values its comments give."""

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_tour() -> str:
    text = README.read_text()
    tour = text[text.index("## Library tour"):]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_library_tour_runs():
    ns: dict = {}
    exec(compile(_library_tour(), "README.md", "exec"), ns)
    assert abs(ns["trace"].survival_factors[-1] - 0.93232) < 1e-5
    assert abs(ns["est"].rho_hat - 0.9330127) < 1e-4
    assert ns["res"] < 1e-14
    w_minus, w_plus = ns["mp"].split(6)
    assert math.isclose(w_minus, 1 / 14) and math.isclose(w_plus, 13 / 14)
    assert abs(ns["w"].w_plus - w_plus) < 1e-3
