import os
import re
from dataclasses import fields

import pytest

from epnls.config import (
    ConfigError,
    parse_config,
    parse_config_text,
    serialize_config,
)
from epnls.sweep import SweepConfig, config_hash, curve_path


def test_empty_document_yields_spec_defaults():
    cfg = parse_config_text("")
    assert cfg == SweepConfig()
    assert (cfg.p, cfg.g, cfg.gamma, cfg.omega0) == (3.0, 1.0, 1.0, 1.0)
    assert (cfg.n, cfg.N, cfg.L) == (1, 128, 10.0)
    assert cfg.s == 1.0  # floor(n/2 + 1) for n = 1
    assert cfg.model == "ep"
    assert cfg.comparator == "systemB"
    assert (cfg.T, cfg.dt) == (2.0, 0.1)
    assert len(cfg.epsilon_set) == 6
    assert cfg.epsilon_set[0] == pytest.approx(1e-2)
    assert cfg.epsilon_set[-1] == pytest.approx(1e-3)
    assert (cfg.outdir, cfg.cache_dir) == ("runs", None)


def test_none_path_equals_empty_document():
    assert parse_config(None) == parse_config_text("")


def test_readme_example_parses_to_the_defaults():
    # the dialect has no inline comments: a "; ..." after a value is part
    # of it, so the README's example keeps its comments on lines of their own
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        (block,) = re.findall(r"```ini\n(.*?)```", fh.read(), re.S)
    assert parse_config_text(block) == SweepConfig()


def test_s_auto_tracks_dimension():
    cfg = parse_config_text("[grid]\nn = 2\nN = 64\n")
    assert cfg.s == 2.0
    cfg3 = parse_config_text("[grid]\nn = 3\nN = 16\n")
    assert cfg3.s == 2.0


def test_nls_model_defaults():
    cfg = parse_config_text("[physics]\nmodel = nls\n")
    assert cfg == SweepConfig(model="nls")
    assert cfg.comparator == "linear-nls"
    assert cfg.T == 0.2
    assert cfg.dt == 8e-3


@pytest.mark.parametrize("value", ["-0.5", "inf", "nan", "fast"])
def test_bad_sample_growth(value):
    # the graded clock's growth key is gone: an INI that still carries it,
    # at any value, is refused as an unknown key, and the message names it
    with pytest.raises(ConfigError, match=r"^unknown key 'sample_growth' in section \[solver\]$"):
        parse_config_text(f"[solver]\nsample_growth = {value}\n")


def test_p_constraint_named_in_error():
    with pytest.raises(ConfigError, match="p must exceed 1"):
        parse_config_text("[physics]\np = 0.5\n")


def test_duplicate_key_reports_line():
    with pytest.raises(ConfigError, match="line"):
        parse_config_text("[physics]\np = 3\np = 4\n")


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("[physics]\nbogus = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config_text("[plotting]\ncolor = red\n")


def test_odd_N_rejected():
    with pytest.raises(ConfigError, match="even"):
        parse_config_text("[grid]\nN = 255\n")


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        parse_config("/nonexistent/path.ini")


def test_roundtrip_identity():
    doc = "[physics]\np = 2.5\ngamma = 0.7\n[sweep]\nalphas = 0,0.25\n"
    cfg = parse_config_text(doc)
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_explicit_solver_values_survive_roundtrip():
    doc = "[solver]\nT = 1.25\ndt = 2.5e-4\n"
    cfg = parse_config_text(doc)
    assert cfg.T == 1.25
    rt = parse_config_text(serialize_config(cfg))
    assert rt == cfg


def test_config_hash_reorder_and_comments_invariant():
    a = parse_config_text("[physics]\np = 3\ng = 1\n[grid]\nn = 1\n")
    b = parse_config_text(
        "# a comment\n[grid]\nn = 1\n[physics]\ng = 1\np = 3\n"
    )
    assert config_hash(a) == config_hash(b)


def test_config_hash_sensitivity():
    base = parse_config_text("")
    # the amplitude keys a curve by its file name under the hash
    assert curve_path("c", base, 1.0) != curve_path("c", base, 0.5)
    moved = parse_config_text("[output]\ndir = /somewhere/else\n")
    assert config_hash(base) == config_hash(moved)
    relad = parse_config_text("[sweep]\nalphas = 0\n")
    assert config_hash(base) == config_hash(relad)
    phys = parse_config_text("[physics]\ngamma = 2\n")
    assert config_hash(base) != config_hash(phys)
    clock = parse_config_text("[solver]\ndt = 0.0125\n")
    assert config_hash(base) != config_hash(clock)


@pytest.mark.parametrize("doc, pinned", [
    ("", "132fc8ee5da333f7"),
    ("[physics]\nmodel = nls\n", "0192c28c95d2e153"),
    ("[physics]\nmodel = nls\n[solver]\ndt = 5e-4\n", "5d72a75bb220bbe2"),
    ("[grid]\nn = 2\nN = 64\n[sweep]\ncomparator = composite\nc1 = 1\n"
     "alphas = 0,0.2\n", "2f3a5b008e6387c3"),
], ids=["ep", "nls", "nls-dt-5e-4", "composite-2d"])
def test_config_hash_is_pinned(doc, pinned):
    # the hash keys curve caches, so it may only change on purpose: a new
    # default, or a new text of the signature (physics_signature), as when
    # the cache's own format changes and every cache is invalidated anyway.
    # It names the physics alone; a change of the code is keyed by the
    # source digest in each cache record, and changes no hash.  A new
    # default alone changes only the default's hash: a config that sets a
    # former NLS default (dt = 5e-4) keeps its hash, and its caches.  Every
    # hash here changed once when the signature lost its solver revision,
    # and the ep hash once more when EP's default dt went from 1/30 to 0.1
    assert config_hash(parse_config_text(doc)) == pinned


def test_every_key_roundtrips_at_non_default_values():
    doc = """\
[grid]
n = 2
N = 32
L = 7.5
max_points = 1000000
[physics]
model = nls
p = 2.5
g = 0.5
gamma = 0.25
omega0 = 2
s = 1.5
[sweep]
alphas = 0,0.05
epsilons = 0.02,0.005
comparator = linear-nls
c1 = 0.5
epsilon_floor = 1e-7
[solver]
T = 1.5
dt = 0.002
[output]
dir = out
cache_dir = cache
"""
    cfg = parse_config_text(doc)
    # every field is set away from its default, so a key missing from the
    # codec's table fails either the parse or the round trip
    default = SweepConfig()
    unset = [f.name for f in fields(SweepConfig)
             if getattr(cfg, f.name) == getattr(default, f.name)]
    assert unset == []
    assert parse_config_text(serialize_config(cfg)) == cfg


def test_bad_list_value():
    with pytest.raises(ConfigError, match="comma-separated"):
        parse_config_text("[sweep]\nepsilons = 1e-2;1e-3\n")


def test_epsilons_must_decrease():
    with pytest.raises(ConfigError, match="decreasing"):
        parse_config_text("[sweep]\nepsilons = 1e-3,1e-2\n")
