"""``CampaignConfig``: one declaration, default and check per campaign
option, shared by ``Campaign``, the facade and the CLI — and the store
digest it feeds, pinned byte for byte."""

from dataclasses import fields

import pytest

from repro.apps import make_app
from repro.cli import build_parser
from repro.cli import _config as config_of_args
from repro.injection import Campaign, CampaignConfig, ConfigError, enumerate_points
from repro.injection.scenario import parse_scenario
from repro.profiling import profile_application

SCENARIO = {
    "version": 1,
    "name": "drop-then-flip",
    "tasks": [
        {"t": 0, "model": "msg_drop", "rank": 1},
        {"t": 2, "model": "bitflip", "rank": 0, "param": "count"},
        {"t": 3, "model": "multibit", "rank": 0, "param": "buffer", "width": 4},
        {"t": 5, "model": "rank_stall", "rank": 1, "weight": 100},
    ],
}


@pytest.fixture(scope="module")
def is_app():
    return make_app("is", "T")


@pytest.fixture(scope="module")
def is_profile(is_app):
    return profile_application(is_app)


class TestDigestPins:
    """``Campaign.digest`` keys the store: these hex values were computed
    before the options moved into ``CampaignConfig``, so a database
    written then keeps resuming now."""

    def test_is_default_config(self, is_app, is_profile):
        digest = Campaign(is_app, is_profile).digest(enumerate_points(is_profile))
        assert digest == "900a49c25d37a34dd82d27c2a63e4e5e6809cf2ced729f098a30e1c7bdf9536a"

    def test_lu_msg_drop_point_major(self, lu_app, lu_profile):
        campaign = Campaign(
            lu_app, lu_profile, param_policy="all", seed=7,
            fault_model="msg_drop", snapshot=False,
        )
        digest = campaign.digest(enumerate_points(lu_profile)[:8])
        assert digest == "de8f5561c08da3e05570fad7c122be1376e207929116925dac78aea193006d52"

    def test_scenario_campaign(self, is_app, is_profile):
        scenario = parse_scenario(SCENARIO)
        campaign = Campaign(is_app, is_profile, tests_per_point=4, seed=3, scenario=scenario)
        digest = campaign.digest([scenario.anchor_point()])
        assert digest == "8c04324a8d76d474266d62b8b2c3a007d2fef4cc6508714a7d48bdc9d48d7f07"

    def test_learn_loop(self, tmp_path, lu_app, lu_profile):
        """``learn()``'s loop configuration (the ``"order"`` sampler, no
        stopper, no budget) keys its row by the ``{"ml": …}`` extra,
        fault model included — so ``learn --db`` files written before the
        loop joined the steering driver keep resuming."""
        from repro.steer import adaptive_campaign
        from repro.store.db import CampaignDB

        db_path = tmp_path / "learn.db"
        for fault_model in ("bitflip", "multibit"):
            adaptive_campaign(
                lu_app, lu_profile, enumerate_points(lu_profile)[:4],
                sampler_mode="order", ci_width=None, accuracy_target=1.0,
                batch_size=4, tests_per_point=2, param_policy="all", seed=3,
                fault_model=fault_model, db_path=db_path,
            )
        with CampaignDB(db_path) as db:
            assert {c["digest"] for c in db.campaigns()} == {
                "4dc23feee4048fd400b4e8cfd679717537b896bf98de879ea9fb0efdde6cf0f0",
                "13e70bac1d664a1cc934cf39996b1f6b850c54b42c8eb7245b6a34649f3549cd",
            }


class TestOneDeclaration:
    def test_every_field_is_a_cli_flag(self):
        args = build_parser().parse_args([
            "campaign", "--app", "is", "--tests", "3", "--policy", "all",
            "--seed", "4", "--jobs", "2", "--db", "c.db", "--resume",
            "--unit-timeout", "9", "--max-retries", "1", "--no-quarantine",
            "--progress-every", "5", "--no-snapshot", "--fault-model", "msg_dup",
        ])
        assert config_of_args(args) == CampaignConfig(
            tests_per_point=3, param_policy="all", seed=4, jobs=2, db_path="c.db",
            resume=True, unit_timeout=9.0, max_retries=1, quarantine=False,
            progress_every=5, snapshot=False, fault_model="msg_dup",
        )
        assert {f.name for f in fields(CampaignConfig)} <= set(vars(args))

    @pytest.mark.parametrize("command", ["campaign", "learn", "study"])
    def test_cli_defaults_are_the_config_defaults(self, command):
        args = build_parser().parse_args([command, "--app", "is"])
        assert config_of_args(args) == CampaignConfig()

    def test_documented_tests_default(self):
        assert CampaignConfig().tests_per_point == 20

    def test_campaign_replaces_fields_over_a_config(self, is_app, is_profile):
        base = CampaignConfig(seed=3, tests_per_point=5)
        campaign = Campaign(is_app, is_profile, base, jobs=2)
        assert campaign.config == CampaignConfig(seed=3, tests_per_point=5, jobs=2)
        assert base.jobs == 1  # frozen: the caller's config is untouched

    def test_preclassifier_sets_static_prune(self, is_app, is_profile):
        assert Campaign(is_app, is_profile, preclassifier=object()).config.static_prune


class TestChecks:
    @pytest.mark.parametrize(
        "option, field, message",
        [
            ({"tests_per_point": -1}, "tests_per_point", "tests_per_point must be >= 0, got -1"),
            ({"seed": -5}, "seed", "seed must be >= 0, got -5"),
            ({"param_policy": "nope"}, "param_policy", "param_policy 'nope' is not"),
            ({"jobs": 0}, "jobs", "jobs must be >= 1, got 0"),
            ({"progress_every": 0}, "progress_every", "progress_every must be >= 1"),
            ({"unit_timeout": 0.0}, "unit_timeout", "unit_timeout must be > 0 seconds"),
            ({"max_retries": -1}, "max_retries", "max_retries must be >= 0"),
            ({"static_prune": True, "db_path": "b"}, "static_prune",
             "static_prune requires a serial in-memory campaign"),
            ({"fault_model": "scenario"}, "fault_model", "unknown fault model 'scenario'"),
            ({"static_prune": True, "fault_model": "multibit"}, "static_prune",
             "static_prune only understands the single-bit 'bitflip' fault model"),
            ({"static_prune": True, "jobs": 2}, "static_prune",
             "static_prune requires a serial in-memory campaign"),
        ],
    )
    def test_rejected_with_the_field_name(self, option, field, message):
        with pytest.raises(ConfigError, match=message) as exc:
            CampaignConfig(**option)
        assert exc.value.field == field

    def test_scenario_guards(self):
        scenario = parse_scenario(SCENARIO)
        with pytest.raises(ConfigError, match="scenario and fault_model are mutually exclusive"):
            CampaignConfig(scenario=scenario, fault_model="msg_drop")
        with pytest.raises(ConfigError, match="scenario is incompatible with static_prune"):
            CampaignConfig(scenario=scenario, static_prune=True)

    def test_parameter_names_are_policies(self):
        assert CampaignConfig(param_policy="sendbuf").param_policy == "sendbuf"

    def test_render_spells_options_as_flags(self):
        with pytest.raises(ConfigError) as exc:
            CampaignConfig(static_prune=True, db_path="b")
        flags = {f.name: f.metadata["flag"] for f in fields(CampaignConfig)}
        assert exc.value.render(flags) == (
            "--static-prune requires a serial in-memory campaign "
            "(incompatible with --jobs > 1 and --db)"
        )

    def test_user_text_is_not_a_template(self):
        with pytest.raises(ConfigError) as exc:
            CampaignConfig(param_policy="{jobs}")
        assert exc.value.render({"param_policy": "--policy"}).startswith("--policy '{jobs}'")
