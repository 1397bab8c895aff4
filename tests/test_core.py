import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from traitsim.core import (
    ARCHETYPES,
    ActionDistribution,
    ActionKind,
    CATEGORIES,
    CATEGORY,
    ContentItem,
    ENGAGEMENT_KINDS,
    OCEAN_VARIANTS,
    Trait,
    TRAIT_PROMPTS,
    ValidationError,
    check_shape,
)


class TestArchetypeTable:
    def test_covers_all_seven_traits(self):
        assert set(ARCHETYPES) == set(Trait)

    def test_rows_are_valid_distributions(self):
        for row in ARCHETYPES.values():
            assert abs(sum(row.as_tuple()) - 1.0) <= 1e-9
            assert all(0.0 <= p <= 1.0 for p in row.as_tuple())

    def test_balanced_participant_anchor(self):
        row = ARCHETYPES[Trait.BP]
        assert row.p_post == pytest.approx(0.5176)
        assert row.p_reshare == pytest.approx(0.4658)

    def test_content_amplifier_anchor(self):
        row = ARCHETYPES[Trait.CA]
        assert row.p_reshare == pytest.approx(0.7696)
        assert row.p_interact == pytest.approx(0.2143)

    def test_interaction_heavy_anchors(self):
        assert ARCHETYPES[Trait.OE].p_interact == pytest.approx(0.761)
        assert ARCHETYPES[Trait.IE].p_interact == pytest.approx(0.8667)

    def test_extreme_archetypes(self):
        assert ARCHETYPES[Trait.SO].p_inactive >= 0.99
        assert ARCHETYPES[Trait.PC].p_post >= 0.99
        # sharer archetypes never post
        assert ARCHETYPES[Trait.OS].p_post == 0.0
        assert ARCHETYPES[Trait.OS].p_reshare > 0.0


class TestTraitPrompts:
    def test_each_trait_has_a_prompt(self):
        assert set(TRAIT_PROMPTS) == set(Trait)
        for trait, text in TRAIT_PROMPTS.items():
            assert text.startswith(f"You are a") or text.startswith("You are an")
            assert trait.value in text

    def test_psychometric_variants(self):
        assert len(OCEAN_VARIANTS) == 10
        codes = {v.code for v in OCEAN_VARIANTS}
        assert len(codes) == 10
        assert {v.factor for v in OCEAN_VARIANTS} == {"O", "C", "E", "A", "N"}
        assert {v.level for v in OCEAN_VARIANTS} == {"High", "Low"}


class TestActionDistribution:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            ActionDistribution(0.5, 0.5, 0.5, 0.0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ActionDistribution(-0.1, 0.6, 0.5, 0.0)

    def test_accepts_within_tolerance(self):
        d = ActionDistribution(0.1, 0.2, 0.3, 0.4 + 1e-12)
        assert sum(d.as_tuple()) == pytest.approx(1.0)

    @given(st.lists(st.floats(0.001, 1.0), min_size=4, max_size=4))
    def test_normalized_vectors_accepted(self, raw):
        total = sum(raw)
        ActionDistribution(*(v / total for v in raw))


class TestActionShape:
    def test_post_requires_payload(self):
        with pytest.raises(ValidationError, match="missing payload"):
            check_shape(ActionKind.POST, None, None)
        check_shape(ActionKind.POST, None, "hello")

    def test_engagements_require_content_id(self):
        for kind in ENGAGEMENT_KINDS:
            for target in ("not-an-id", True):
                with pytest.raises(ValidationError, match="missing target"):
                    check_shape(kind, target, "x")
        check_shape(ActionKind.LIKE, 7, None)

    def test_comment_requires_text(self):
        with pytest.raises(ValidationError, match="missing payload"):
            check_shape(ActionKind.COMMENT, 7, None)

    def test_follow_requires_agent_id(self):
        with pytest.raises(ValidationError, match="missing target"):
            check_shape(ActionKind.FOLLOW, 7, None)
        check_shape(ActionKind.FOLLOW, "a1", None)

    @pytest.mark.parametrize("kind, target, payload", [
        (ActionKind.POST, 7, "hello"), (ActionKind.RESHARE, 7, "x"),
        (ActionKind.LIKE, 7, ""), (ActionKind.DISLIKE, 7, "x"),
        (ActionKind.FOLLOW, "a1", "x"), (ActionKind.INACTIVE, None, "")])
    def test_a_field_the_kind_does_not_carry(self, kind, target, payload):
        with pytest.raises(ValidationError, match="unexpected field"):
            check_shape(kind, target, payload)

    def test_a_kind_that_is_no_action_kind(self):
        with pytest.raises(ValidationError, match="unknown action kind"):
            check_shape("like", 7, None)

    def test_inactive_carries_nothing(self):
        with pytest.raises(ValidationError, match="unexpected field"):
            check_shape(ActionKind.INACTIVE, 1, None)
        check_shape(ActionKind.INACTIVE, None, None)


class TestContentItem:
    def test_original_is_its_own_root(self):
        item = ContentItem(1, "a", 1, "t", "Music")
        assert item.root == 1
        assert not item.is_reshare

    def test_original_with_foreign_root_rejected(self):
        with pytest.raises(ValueError):
            ContentItem(2, "a", 1, "t", "Music", root=1)

    def test_reshare_requires_root(self):
        with pytest.raises(ValueError):
            ContentItem(2, "a", 1, "t", "Music", parent=1)
        item = ContentItem(2, "a", 1, "t", "Music", parent=1, root=1)
        assert item.is_reshare


def test_action_category_mapping():
    column = {name: i for i, name in enumerate(CATEGORIES)}
    assert CATEGORY[ActionKind.POST] == column["post"]
    assert CATEGORY[ActionKind.RESHARE] == column["reshare"]
    for kind in (ActionKind.LIKE, ActionKind.DISLIKE, ActionKind.COMMENT):
        assert CATEGORY[kind] == column["interact"]
    assert CATEGORY[ActionKind.INACTIVE] == column["inactive"]
    assert ActionKind.FOLLOW not in CATEGORY


class TestBehaviourSpace:
    """The behavioural space is defined once, in ``core``; these fail when a
    copy of it (a kind, a column, a field or the README's archetype table)
    drifts."""

    def test_every_kind_but_follow_has_a_column(self):
        assert set(CATEGORY) == set(ActionKind) - {ActionKind.FOLLOW}
        assert sorted(set(CATEGORY.values())) == list(range(len(CATEGORIES)))

    def test_distribution_fields_follow_the_categories(self):
        assert list(ActionDistribution.__dataclass_fields__) == [
            f"p_{c}" for c in CATEGORIES]

    def test_readme_archetype_rows_are_the_constant(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(
            encoding="utf-8")
        rows = re.findall(r"^\| (\w\w) — ([^|]+) \|(.+)\|$", readme, re.M)
        assert sorted(code for code, _, _ in rows) == sorted(
            trait.name for trait in Trait)
        for code, label, values in rows:
            trait = Trait[code]
            assert label == trait.value
            assert tuple(float(v) for v in values.split("|")) == (
                ARCHETYPES[trait].as_tuple())


class TestFromCounts:
    def test_divides_by_the_integer_total(self):
        v = ActionDistribution.from_counts([13, 12, 0, 0])
        assert v.as_tuple() == (13 / 25, 12 / 25, 0 / 25, 0 / 25)
