"""Work counts of a default `verify` run."""

import sys
from collections import Counter

from turlab import linalg
from turlab.verify import run_suites


def test_default_verify_decomposes_and_validates_each_input_once(monkeypatch):
    """Each distinct matrix reaches _spectral once (a channel caches its V_0^dag V_0 spectrum, and
    scaling shares qfi's channels); each suite input is validated once."""
    seen, validated = Counter(), Counter()

    def counting(name, original):
        def wrapper(m, *args, **kwargs):
            if name == "_spectral":
                seen[(m.shape, m.tobytes())] += 1
            validated[name] += 1
            return original(m, *args, **kwargs)
        return wrapper

    for name in ("_spectral", "require_density", "require_hermitian"):
        original = getattr(linalg, name)
        wrapper = counting(name, original)
        for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    results = run_suites(trials=100, seed=2024)
    assert all(r.passed for r in results)
    assert len(seen) == 370 and set(seen.values()) == {1}
    assert (validated["require_density"], validated["require_hermitian"]) == (270, 590)


def test_scaling_alone_validates_its_own_inputs(monkeypatch):
    calls = Counter()
    original = linalg.require_density

    def counting(m, *args, **kwargs):
        calls["require_density"] += 1
        return original(m, *args, **kwargs)

    for module in [m for n, m in sys.modules.items() if n.startswith("turlab")]:
        if getattr(module, "require_density", None) is original:
            monkeypatch.setattr(module, "require_density", counting)
    (result,) = run_suites(names=["scaling"], trials=10, seed=2024)
    assert result.passed and calls["require_density"] == 10
