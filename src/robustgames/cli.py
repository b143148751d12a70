"""Command line entry point.

Subcommands cover game analysis, the auction and mechanism testbeds,
the verification battery, and game export.  All output is byte-stable
for fixed inputs, flags, and seed: rationals print as p/q, reports
carry no timestamps, and every structured report embeds the serialized
instance it talks about so verdicts can be re-checked offline.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 capacity
error, 5 internal consistency error (a violated theorem; the message
carries the witness).
"""
from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction

from . import concepts, instances, mechanisms, singleitem, vcg, verification
from .concepts import Concept
from .core import AgentGame, format_game, format_scalar, parse_game, parse_scalar
from .errors import (
    CapacityError,
    EngineError,
    InternalConsistencyError,
    ParseError,
    ValidationError,
)

OUT_DIR_VARIABLE = "ROBUSTGAMES_OUT_DIR"

GAME_REGISTRY = tuple(sorted(instances.CURATED_GAMES))
AUCTION_REGISTRY = ("example-e1", "example-e2")


def _decimal_suffix(value: Fraction, places: int | None) -> str:
    if places is None:
        return ""
    return f" (approx {float(value):.{places}f}, display only)"


def _scalar_cell(value: Fraction, places: int | None) -> str:
    return format_scalar(value) + _decimal_suffix(value, places)


def _set_line(game: AgentGame, actions: set[str]) -> str:
    ordered = [a for a in game.actions if a in actions]
    return " ".join(ordered) if ordered else "-"


def _resolve_out(path: str) -> str:
    if os.path.isabs(path):
        return path
    base = os.environ.get(OUT_DIR_VARIABLE)
    return os.path.join(base, path) if base else path


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    target = _resolve_out(out)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8") as handle:
        handle.write(text)
    print(f"wrote {target}")


def _read_text(path: str, what: str) -> str:
    """The text of a UTF-8 input file; an unreadable one is a parse error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as error:
        raise ParseError(f"cannot read {what} {path!r}: {error}") from None


def _parse_int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"{what} must be an integer, got {text[:40]!r}") from None


def _parse_concepts(raw: str | None) -> tuple[Concept, ...]:
    if raw is None:
        return tuple(Concept)
    out = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            out.append(Concept(token))
        except ValueError:
            known = ", ".join(c.value for c in Concept)
            raise ValidationError(f"unknown concept {token!r}; known: {known}") from None
    if not out:
        raise ParseError("empty concept list")
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario files


SCENARIO_FIELDS = {
    "raw-game": {"game-file"},
    "dfpa": {"value", "epsilon", "cap"},
    "all-pay": {"value", "epsilon", "cap"},
    "fpa-witness": {"value", "bid"},
    "vcg-attack": {"items", "epsilon", "valuation", "bid", "nature", "payment-rule"},
    "facility": {"agents", "type", "grid-step"},
    "voting": {"rule", "utilities", "tally-cap"},
    "curated": {"name"},
}
SCENARIO_COMMON = {"concepts", "format"}
SCENARIO_REQUIRED = {
    "raw-game": {"game-file"},
    "dfpa": {"value", "epsilon"},
    "all-pay": {"value", "epsilon", "cap"},
    "fpa-witness": {"value", "bid"},
    "vcg-attack": {"items", "valuation", "bid"},
    "facility": {"agents", "type"},
    "voting": {"rule", "utilities"},
    "curated": {"name"},
}


class Scenario:
    """A parsed scenario file: a kind plus validated key/value fields."""

    def __init__(self, kind: str, fields: dict[str, list[str]], base_dir: str):
        self.kind = kind
        self.fields = fields
        self.base_dir = base_dir

    def single(self, key: str) -> str:
        values = self.fields[key]
        if len(values) != 1:
            raise ValidationError(f"field {key!r} given {len(values)} times, expected once")
        return values[0]

    def optional(self, key: str, default: str | None = None) -> str | None:
        if key not in self.fields:
            return default
        return self.single(key)


def parse_scenario(path: str) -> Scenario:
    lines = _read_text(path, "scenario").splitlines()
    if not lines or lines[0] != "scenario v1":
        raise ParseError(f"{path}: first line must be 'scenario v1'")
    fields: dict[str, list[str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"{path}:{lineno}: expected 'key: value', got {line!r}")
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ParseError(f"{path}:{lineno}: empty key or value")
        fields.setdefault(key, []).append(value)
    if "kind" not in fields:
        raise ParseError(f"{path}: missing 'kind' field")
    if len(fields["kind"]) != 1:
        raise ParseError(f"{path}: 'kind' given more than once")
    kind = fields.pop("kind")[0]
    if kind not in SCENARIO_FIELDS:
        raise ValidationError(
            f"{path}: unknown scenario kind {kind!r}; known: "
            + ", ".join(sorted(SCENARIO_FIELDS))
        )
    allowed = SCENARIO_FIELDS[kind] | SCENARIO_COMMON
    for key in fields:
        if key not in allowed:
            raise ValidationError(f"{path}: field {key!r} is not valid for kind {kind!r}")
    missing = SCENARIO_REQUIRED[kind] - set(fields)
    if missing:
        raise ParseError(f"{path}: kind {kind!r} is missing field(s) {', '.join(sorted(missing))}")
    return Scenario(kind, fields, os.path.dirname(os.path.abspath(path)))


def _scenario_game(scenario: Scenario) -> AgentGame:
    """Build the AgentGame a game-kind scenario describes."""
    kind = scenario.kind
    if kind == "raw-game":
        path = scenario.single("game-file")
        if not os.path.isabs(path):
            path = os.path.join(scenario.base_dir, path)
        return parse_game(_read_text(path, "game file"))
    if kind == "dfpa":
        spec = _dfpa_spec(
            scenario.single("value"), scenario.single("epsilon"), scenario.optional("cap")
        )
        return singleitem.dfpa_game(spec)
    if kind == "all-pay":
        return singleitem.all_pay_game(
            parse_scalar(scenario.single("value")),
            parse_scalar(scenario.single("epsilon")),
            parse_scalar(scenario.single("cap")),
        )
    if kind == "facility":
        return mechanisms.facility_game(_facility_spec_from(scenario))
    if kind == "voting":
        return mechanisms.psr_game(_psr_spec_from(scenario))
    if kind == "curated":
        return instances.curated_game(scenario.single("name"))
    raise ValidationError(f"scenario kind {kind!r} does not describe a single game")


def _dfpa_spec(value: str, epsilon: str, cap: str | None) -> singleitem.DfpaSpec:
    value, epsilon = parse_scalar(value), parse_scalar(epsilon)
    if not cap:
        return singleitem.default_dfpa_spec(value, epsilon)
    return singleitem.DfpaSpec(value, epsilon, parse_scalar(cap))


def _facility_spec(agents: int, my_type: str, grid_step: str | None) -> mechanisms.FacilitySpec:
    # The default grid step 1/(4n) is defined only once n is a valid count.
    if agents < 2:
        raise ValidationError(f"need at least 2 agents, got {agents}")
    step = parse_scalar(grid_step) if grid_step else Fraction(1, 4 * agents)
    return mechanisms.FacilitySpec(agents, parse_scalar(my_type), step)


def _facility_spec_from(scenario: Scenario) -> mechanisms.FacilitySpec:
    return _facility_spec(
        _parse_int(scenario.single("agents"), "agents"),
        scenario.single("type"),
        scenario.optional("grid-step"),
    )


def _psr_spec(rule: str, utilities: str, tally_cap: int | None) -> mechanisms.PsrSpec:
    values = tuple(parse_scalar(tok) for tok in utilities.replace(",", " ").split())
    if rule == "plurality":
        return mechanisms.plurality_spec(len(values), values, tally_cap)
    if rule == "approval":
        return mechanisms.approval_spec(len(values), values, tally_cap)
    raise ValidationError(f"unknown voting rule {rule!r}; known: plurality, approval")


def _psr_spec_from(scenario: Scenario) -> mechanisms.PsrSpec:
    cap = scenario.optional("tally-cap")
    return _psr_spec(
        scenario.single("rule"),
        scenario.single("utilities"),
        _parse_int(cap, "tally-cap") if cap is not None else None,
    )


def _payment_rule(name: str) -> vcg.PaymentRule:
    try:
        return vcg.PaymentRule(name)
    except ValueError:
        known = ", ".join(rule.value for rule in vcg.PaymentRule)
        raise ValidationError(f"unknown payment rule {name!r}; known: {known}") from None


def _vcg_attack_from(
    scenario: Scenario,
) -> tuple[vcg.CombValuation, tuple[vcg.CombBid, ...], vcg.CombBid | None, Fraction | None]:
    # The bundle table checks the item count before the table length.
    items = _parse_int(scenario.single("items"), "items")
    def table(raw: str) -> tuple[Fraction, ...]:
        return tuple(parse_scalar(tok) for tok in raw.split())
    valuation = vcg.CombValuation(items, table(scenario.single("valuation")))
    bids = tuple(vcg.CombBid(items, table(raw)) for raw in scenario.fields["bid"])
    nature_raw = scenario.optional("nature")
    nature = vcg.CombBid(items, table(nature_raw)) if nature_raw else None
    eps_raw = scenario.optional("epsilon")
    epsilon = parse_scalar(eps_raw) if eps_raw else None
    return valuation, bids, nature, epsilon


# ---------------------------------------------------------------------------
# analyze


def _analyze_text(
    game: AgentGame, chosen: tuple[Concept, ...], fmt: str, decimal: int | None
) -> str:
    verdicts = [concepts.concept_verdict(game, c) for c in chosen]
    if fmt == "csv":
        lines = ["concept,actions"]
        for verdict in verdicts:
            lines.append(f"{verdict.concept.value},{';'.join(verdict.satisfying) or '-'}")
        return "\n".join(lines) + "\n"
    if fmt == "table":
        width = max(len(v.concept.value) for v in verdicts)
        lines = [f"{'concept'.ljust(width)}  actions"]
        for verdict in verdicts:
            lines.append(
                f"{verdict.concept.value.ljust(width)}  {' '.join(verdict.satisfying) or '-'}"
            )
        return "\n".join(lines) + "\n"
    parts = [concepts.format_verdict(game, v) for v in verdicts]
    return "".join(parts) + "\n" + format_game(game)


def _cmd_analyze(args: argparse.Namespace) -> str:
    fmt = args.format
    chosen = _parse_concepts(args.concepts)
    if args.scenario:
        scenario = parse_scenario(args.scenario)
        raw = scenario.optional("concepts")
        if raw is not None:
            chosen = _parse_concepts(raw)
        fmt = scenario.optional("format", fmt)
        if fmt not in ("structured", "csv", "table"):
            raise ValidationError(f"unknown format {fmt!r}")
        if scenario.kind == "fpa-witness":
            return _fpa_witness_text(
                parse_scalar(scenario.single("value")),
                parse_scalar(scenario.single("bid")),
            )
        if scenario.kind == "vcg-attack":
            return _vcg_run_scenario_text(scenario, "clarke", args.decimal)
        game = _scenario_game(scenario)
    elif args.curated:
        if args.curated in AUCTION_REGISTRY:
            raise ValidationError(
                f"{args.curated!r} is a combinatorial auction instance; use 'vcg run --curated'"
            )
        game = instances.curated_game(args.curated)
    elif args.game:
        game = parse_game(_read_text(args.game, "game file"))
    else:
        raise ParseError("analyze needs --curated, --game, or --scenario")
    return _analyze_text(game, chosen, fmt, args.decimal)


# ---------------------------------------------------------------------------
# auctions


def _dfpa_text(spec: singleitem.DfpaSpec, decimal: int | None) -> str:
    value, epsilon = spec.value, spec.epsilon
    game = singleitem.dfpa_game(spec)
    la_bid = singleitem.dfpa_loss_averse_bid(value, epsilon)
    regret_set = singleitem.dfpa_min_max_regret_set(value, epsilon)
    leximin_set = singleitem.dfpa_leximin_set(value, epsilon)
    engine_la = concepts.loss_averse_actions(game)
    engine_regret = concepts.min_max_regret_actions(game)
    engine_leximin = concepts.leximin_actions(game)
    if engine_la != {format_scalar(la_bid)}:
        raise InternalConsistencyError(
            f"engine loss-averse bids {sorted(engine_la)} differ from the formula {la_bid}"
        )
    if engine_regret != {format_scalar(b) for b in regret_set}:
        raise InternalConsistencyError(
            f"engine regret bids {sorted(engine_regret)} differ from the formula {regret_set}"
        )
    if engine_leximin != {format_scalar(b) for b in leximin_set}:
        raise InternalConsistencyError(
            f"engine leximin bids {sorted(engine_leximin)} differ from the formula {leximin_set}"
        )
    lines = [
        "dfpa report v1",
        f"value {format_scalar(spec.value)}",
        f"step {format_scalar(spec.epsilon)}",
        f"cap {format_scalar(spec.nature_bid_cap)}",
        f"loss-averse-bid {_scalar_cell(la_bid, decimal)}",
        "min-max-regret-bids " + " ".join(_scalar_cell(b, decimal) for b in regret_set),
        "leximin-bids " + " ".join(_scalar_cell(b, decimal) for b in leximin_set),
        f"engine-loss-averse {_set_line(game, engine_la)}",
        f"engine-min-max-regret {_set_line(game, engine_regret)}",
        f"engine-leximin {_set_line(game, engine_leximin)}",
        "",
    ]
    return "\n".join(lines) + format_game(game)


def _allpay_text(value: Fraction, epsilon: Fraction, cap: Fraction, decimal: int | None) -> str:
    game = singleitem.all_pay_game(value, epsilon, cap)
    closed = singleitem.all_pay_loss_averse_bid(value)
    engine_la = concepts.loss_averse_actions(game)
    if engine_la != {format_scalar(closed)}:
        raise InternalConsistencyError(
            f"engine loss-averse bids {sorted(engine_la)} differ from the formula {closed}"
        )
    lines = [
        "all-pay report v1",
        f"value {format_scalar(value)}",
        f"step {format_scalar(epsilon)}",
        f"cap {format_scalar(cap)}",
        f"loss-averse-bid {_scalar_cell(closed, decimal)}",
        f"engine-loss-averse {_set_line(game, engine_la)}",
        "",
    ]
    return "\n".join(lines) + format_game(game)


def _fpa_witness_text(value: Fraction, bid: Fraction) -> str:
    witness = singleitem.fpa_no_loss_averse_witness(value, bid)
    if not singleitem.verify_fpa_witness(witness):
        raise InternalConsistencyError(f"witness failed re-derivation: {witness}")
    lines = [
        "fpa-witness report v1",
        f"value {format_scalar(witness.value)}",
        f"bid {format_scalar(witness.bid)}",
        f"deviation {format_scalar(witness.deviation)}",
        f"difference-state {format_scalar(witness.state)}",
        f"bid-min {format_scalar(witness.bid_min)}",
        f"deviation-min {format_scalar(witness.deviation_min)}",
        "verified strict",
    ]
    return "\n".join(lines) + "\n"


def _cmd_auction(args: argparse.Namespace) -> str:
    if args.mechanism == "dfpa":
        if args.value is None or args.epsilon is None:
            raise ParseError("auction dfpa needs --value and --epsilon")
        return _dfpa_text(_dfpa_spec(args.value, args.epsilon, args.cap), args.decimal)
    if args.mechanism == "allpay":
        if args.value is None or args.epsilon is None or args.cap is None:
            raise ParseError("auction allpay needs --value, --epsilon, and --cap")
        return _allpay_text(
            parse_scalar(args.value), parse_scalar(args.epsilon), parse_scalar(args.cap), args.decimal
        )
    if args.value is None or args.bid is None:
        raise ParseError("auction fpa-witness needs --value and --bid")
    return _fpa_witness_text(parse_scalar(args.value), parse_scalar(args.bid))


# ---------------------------------------------------------------------------
# vcg


def _bid_labels(profiles: tuple[vcg.SybilProfile, ...]) -> list[str]:
    labels = []
    for i, profile in enumerate(profiles):
        agent = chr(ord("A") + i)
        if len(profile.bids) == 1:
            labels.append(agent)
        else:
            labels.extend(f"{agent}{j + 1}" for j in range(len(profile.bids)))
    return labels


def _outcome_lines(
    outcome: vcg.VcgOutcome, labels: list[str], items: tuple[str, ...], decimal: int | None
) -> list[str]:
    lines = [f"payment-rule {outcome.payment_rule.value}"]
    for i, label in enumerate(labels):
        bundle = vcg.bundle_label(outcome.bundles[i], items)
        lines.append(
            f"allocation {label} {bundle} payment {_scalar_cell(outcome.payments[i], decimal)}"
        )
    lines.append(f"observed-welfare {_scalar_cell(outcome.observed_welfare, decimal)}")
    lines.append(f"real-welfare {_scalar_cell(outcome.real_welfare, decimal)}")
    for agent, utility in enumerate(outcome.agent_utilities):
        lines.append(f"agent-utility {chr(ord('A') + agent)} {_scalar_cell(utility, decimal)}")
    return lines


def _classification_lines(
    classification: vcg.AttackClassification, items: tuple[str, ...]
) -> list[str]:
    lines = [f"classification {classification.kind.value}"]
    if classification.witness_mask is not None:
        lines.append(
            f"classification-witness {vcg.bundle_label(classification.witness_mask, items)}"
        )
    return lines


def _attack_outcome(
    report: vcg.SplitPairReport | vcg.SingletonSplitReport, rule: vcg.PaymentRule
) -> vcg.VcgOutcome:
    if rule is vcg.PaymentRule.CLARKE_PIVOT:
        return report.attack_outcome
    return report.attack_outcome_literal


def _split_pair_text(epsilon: Fraction, rule: vcg.PaymentRule, decimal: int | None) -> str:
    report = vcg.build_split_pair_instance(epsilon)
    labels = _bid_labels(report.attack_profiles)
    lines = ["vcg report v1", "instance example-e1", f"step {format_scalar(epsilon)}"]
    lines += _classification_lines(report.classification, report.items)
    lines += _outcome_lines(_attack_outcome(report, rule), labels, report.items, decimal)
    truth = report.truthful_outcome
    lines.append(f"truthful-welfare {_scalar_cell(truth.observed_welfare, decimal)}")
    lines.append(f"truthful-agent-utility A {_scalar_cell(truth.agent_utilities[0], decimal)}")
    for note in report.discrepancies:
        lines.append(f"source-discrepancy {note}")
    return "\n".join(lines) + "\n"


def _singleton_split_text(epsilon: Fraction, rule: vcg.PaymentRule, decimal: int | None) -> str:
    report = vcg.build_singleton_split_instance(epsilon)
    outcome = _attack_outcome(report, rule)
    labels = [f"A{j + 1}" for j in range(len(report.attack_bids))] + ["nature"]
    lines = ["vcg report v1", "instance example-e2", f"step {format_scalar(epsilon)}"]
    lines += _classification_lines(report.classification, report.items)
    lines += _outcome_lines(outcome, labels, report.items, decimal)
    attack_utility = outcome.agent_utilities[0]
    lines.append(f"attack-utility {_scalar_cell(attack_utility, decimal)}")
    truth_utility = report.truthful_outcome.agent_utilities[0]
    lines.append(f"truth-utility {_scalar_cell(truth_utility, decimal)}")
    return "\n".join(lines) + "\n"


def _vcg_run_scenario_text(scenario: Scenario, rule_name: str, decimal: int | None) -> str:
    # The scenario's rule overrides the flag, as its format and concepts do.
    rule = _payment_rule(scenario.optional("payment-rule", rule_name))
    valuation, bids, nature, epsilon = _vcg_attack_from(scenario)
    profiles = [vcg.SybilProfile(valuation, bids)]
    if nature is not None:
        profiles.append(vcg.SybilProfile.truthful(nature))
    outcome = vcg.run_vcg(profiles, valuation.item_count, epsilon=epsilon, payment_rule=rule)
    items = tuple(chr(ord("a") + i) for i in range(valuation.item_count))
    classification = vcg.classify_attack(valuation, bids)
    labels = _bid_labels(tuple(profiles))
    lines = ["vcg report v1", "instance scenario", f"items {valuation.item_count}"]
    lines += _classification_lines(classification, items)
    lines += _outcome_lines(outcome, labels, items, decimal)
    return "\n".join(lines) + "\n"


def _cmd_vcg(args: argparse.Namespace) -> str:
    epsilon = parse_scalar(args.epsilon) if args.epsilon else Fraction(1, 10)
    if args.action == "run":
        if args.curated == "example-e1":
            return _split_pair_text(epsilon, _payment_rule(args.payment_rule), args.decimal)
        if args.curated == "example-e2":
            return _singleton_split_text(epsilon, _payment_rule(args.payment_rule), args.decimal)
        if args.curated:
            raise ValidationError(
                f"unknown auction instance {args.curated!r}; known: "
                + ", ".join(AUCTION_REGISTRY)
            )
        if not args.scenario:
            raise ParseError("vcg run needs --curated or --scenario")
        scenario = parse_scenario(args.scenario)
        if scenario.kind != "vcg-attack":
            raise ValidationError(f"vcg run needs a vcg-attack scenario, got {scenario.kind!r}")
        return _vcg_run_scenario_text(scenario, args.payment_rule, args.decimal)
    if args.action in ("classify", "adversary"):
        if not args.scenario:
            raise ParseError(f"vcg {args.action} needs --scenario")
        scenario = parse_scenario(args.scenario)
        if scenario.kind != "vcg-attack":
            raise ValidationError(
                f"vcg {args.action} needs a vcg-attack scenario, got {scenario.kind!r}"
            )
        valuation, bids, _, eps = _vcg_attack_from(scenario)
        items = tuple(chr(ord("a") + i) for i in range(valuation.item_count))
        classification = vcg.classify_attack(valuation, bids)
        lines = ["vcg-attack report v1", f"items {valuation.item_count}"]
        lines += _classification_lines(classification, items)
        lines.append(
            "best-partition "
            + " ".join(format_scalar(v) for v in classification.best_partition)
        )
        if args.action == "classify":
            return "\n".join(lines) + "\n"
        lines += _adversary_lines(valuation, bids, classification, eps, items)
        return "\n".join(lines) + "\n"
    return _verify_theorem_text(args.budget, args.seed)


def _adversary_lines(
    valuation: vcg.CombValuation,
    bids: tuple[vcg.CombBid, ...],
    classification: vcg.AttackClassification,
    epsilon: Fraction | None,
    items: tuple[str, ...],
) -> list[str]:
    kind = classification.kind
    if kind is vcg.AttackKind.EXACT_BIDDING:
        family = vcg.nature_state_family(
            valuation.item_count, (Fraction(0), Fraction(1), Fraction(2))
        )
        certificate = vcg.truth_loss_averse_witnesses(valuation, bids, family)
        lines = [f"certificate {certificate.mode}"]
        if certificate.adversary is not None:
            lines.append(
                "adversary " + " ".join(format_scalar(v) for v in certificate.adversary.values)
            )
            lines.append(f"attack-utility {format_scalar(certificate.attack_utility)}")
            lines.append(f"truth-utility {format_scalar(certificate.truth_utility)}")
        return lines
    if kind is vcg.AttackKind.OVERBIDDING:
        report = vcg.overbidding_adversary(valuation, bids, epsilon=epsilon)
    else:
        report = vcg.underbidding_adversary(valuation, bids, epsilon=epsilon)
    lines = [f"adversary-refuted {'yes' if report.refuted else 'no'}"]
    if report.refuted:
        lines.append(f"adversary-form {report.form}")
        lines.append(f"adversary-witness {vcg.bundle_label(report.witness_mask, items)}")
        lines.append(
            "adversary " + " ".join(format_scalar(v) for v in report.adversary.values)
        )
        lines.append(f"attack-utility {format_scalar(report.attack_utility)}")
        lines.append(f"truth-utility {format_scalar(report.truth_utility)}")
    else:
        family = vcg.nature_state_family(
            valuation.item_count, (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
        )
        check = vcg.claim_family_check(valuation, bids, family, extra=report.tried)
        lines.append(f"family-size {check.family_size}")
        lines.append(f"difference-states {check.difference_states}")
        if check.difference_states == 0:
            lines.append("attack outcome-equivalent to truth over the family")
        else:
            lines.append(f"family-truth-min {format_scalar(check.truth_min)}")
            lines.append(f"family-attack-min {format_scalar(check.attack_min)}")
    return lines


def _verify_theorem_text(budget: str, seed: int) -> str:
    result = verification.check_vcg_attack_properties(budget, seed)
    status = "PASS" if result.passed else "FAIL"
    text = f"{status} {result.name} -- {result.detail}\n"
    if not result.passed:
        raise InternalConsistencyError(text.strip())
    return text


# ---------------------------------------------------------------------------
# facility, voting, verify-all, export


def _cmd_facility(args: argparse.Namespace) -> str:
    if args.agents is None or args.type is None:
        raise ParseError("facility needs --agents and --type")
    spec = _facility_spec(args.agents, args.type, args.grid_step)
    agents, my_type, step = spec.agent_count, spec.my_type, spec.others_grid_step
    game = mechanisms.facility_game(spec)
    closed = mechanisms.facility_loss_averse_report(my_type, agents)
    engine_la = concepts.loss_averse_actions(game)
    engine_sl = concepts.safety_level_actions(game)
    demo = mechanisms.facility_welfare_loss_demo(agents)
    lines = [
        "facility report v1",
        f"agents {agents}",
        f"type {format_scalar(my_type)}",
        f"grid-step {format_scalar(step)}",
        f"closed-form-report {_scalar_cell(closed, args.decimal)}",
        f"engine-loss-averse {_set_line(game, engine_la)}",
        f"engine-safety-level {_set_line(game, engine_sl)}",
        f"worst-case-welfare-loss {_scalar_cell(demo.welfare_loss, args.decimal)}",
        "",
    ]
    return "\n".join(lines) + format_game(game)


def _cmd_voting(args: argparse.Namespace) -> str:
    if args.utilities is None:
        raise ParseError("voting needs --utilities")
    spec = _psr_spec(args.rule, args.utilities, args.tally_cap)
    utilities = spec.cardinal_utilities
    game = mechanisms.psr_game(spec)
    frontier = mechanisms.voting_pareto_frontier_loss_averse(spec)
    engine_la = concepts.loss_averse_actions(game)
    lines = [
        "voting report v1",
        f"rule {args.rule}",
        "utilities " + " ".join(format_scalar(u) for u in utilities),
        f"tally-cap {spec.tally_cap}",
        "frontier " + " ".join(mechanisms.ballot_label(v) for v in frontier),
        f"engine-loss-averse {_set_line(game, engine_la)}",
    ]
    if args.rule == "plurality":
        mixture = mechanisms.plurality_mixed_loss_averse(utilities)
        equalization = mechanisms.plurality_mixed_equalization(utilities)
        lines.append(
            "mixed-loss-averse "
            + " ".join(f"{label}:{format_scalar(p)}" for label, p in mixture.entries)
        )
        lines.append(f"pivotal-expected-utility {_scalar_cell(equalization.level, args.decimal)}")
        truthful = mechanisms.plurality_min_max_regret(utilities)
        lines.append(f"min-max-regret-ballot {mechanisms.ballot_label(truthful)}")
        lines.append(
            f"max-regret {_scalar_cell(concepts.max_regret(game, mechanisms.ballot_label(truthful)), args.decimal)}"
        )
    else:
        k = mechanisms.approval_min_max_regret_top_k(utilities)
        ballot = mechanisms.approval_top_k_ballot(len(utilities), k)
        lines.append(f"min-max-regret-top-k {k}")
        lines.append(f"min-max-regret-ballot {mechanisms.ballot_label(ballot)}")
    lines.append("")
    return "\n".join(lines) + format_game(game)


def _cmd_verify_all(args: argparse.Namespace) -> str:
    results = verification.run_all(args.budget, args.seed)
    width = max(len(r.name) for r in results)
    lines = [f"verification budget={args.budget} seed={args.seed}"]
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        lines.append(f"{status} {result.name.ljust(width)}  {result.detail}")
    failed = [r for r in results if not r.passed]
    lines.append(f"{len(results) - len(failed)}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    if failed:
        raise InternalConsistencyError(text.rstrip("\n"))
    return text


def _cmd_export(args: argparse.Namespace) -> str:
    if args.curated:
        game = instances.curated_game(args.curated)
    elif args.scenario:
        game = _scenario_game(parse_scenario(args.scenario))
    else:
        raise ParseError("export needs --curated or --scenario")
    text = format_game(game)
    if parse_game(text) != game:
        raise InternalConsistencyError("serialized game does not round-trip")
    return text


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustgames",
        description="Exact solvers for robust solution concepts and mechanism testbeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", help="write the report to this file instead of stdout")
        p.add_argument(
            "--decimal",
            type=int,
            metavar="PLACES",
            help="append approximate decimals to exact values (display only)",
        )

    p = sub.add_parser("analyze", help="concept analysis of a finite game")
    p.add_argument("--curated", help="curated game name: " + ", ".join(GAME_REGISTRY))
    p.add_argument("--game", help="path to an agentgame v1 file")
    p.add_argument("--scenario", help="path to a scenario v1 file")
    p.add_argument("--concepts", help="comma-separated concept list (default: all)")
    p.add_argument(
        "--format", choices=("structured", "csv", "table"), default="structured"
    )
    add_common(p)

    p = sub.add_parser("auction", help="single-item auction testbeds")
    p.add_argument("mechanism", choices=("dfpa", "allpay", "fpa-witness"))
    p.add_argument("--value", help="agent's value for the item")
    p.add_argument("--epsilon", help="bid grid step")
    p.add_argument("--cap", help="top rival bid cap")
    p.add_argument("--bid", help="bid to refute (fpa-witness)")
    add_common(p)

    p = sub.add_parser("vcg", help="combinatorial auction attacks")
    p.add_argument("action", choices=("run", "classify", "adversary", "verify-theorem"))
    p.add_argument("--curated", help="auction instance: " + ", ".join(AUCTION_REGISTRY))
    p.add_argument("--scenario", help="path to a vcg-attack scenario file")
    p.add_argument("--epsilon", help="valuation grid step (default 1/10 for curated)")
    p.add_argument(
        "--payment-rule",
        choices=("clarke", "paper"),
        default="clarke",
        help="pivot payments or the source text's literal formula",
    )
    p.add_argument("--budget", choices=tuple(sorted(verification.BUDGETS)), default="default")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("facility", help="facility location under the mean rule")
    p.add_argument("--agents", type=int)
    p.add_argument("--type", help="agent's ideal point in [0, 1]")
    p.add_argument("--grid-step", help="grid step for the others' report sum")
    add_common(p)

    p = sub.add_parser("voting", help="positional scoring rule testbeds")
    p.add_argument("--rule", choices=("plurality", "approval"), required=True)
    p.add_argument("--utilities", help="comma-separated cardinal utilities, 1 down to 0")
    p.add_argument("--tally-cap", type=int, help="max aggregate score from other voters")
    add_common(p)

    p = sub.add_parser("verify-all", help="run the full verification battery")
    p.add_argument("--budget", choices=tuple(sorted(verification.BUDGETS)), default="default")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)

    p = sub.add_parser("export", help="serialize a game to the canonical document")
    p.add_argument("--curated", help="curated game name: " + ", ".join(GAME_REGISTRY))
    p.add_argument("--scenario", help="path to a game-kind scenario file")
    add_common(p)

    return parser


_HANDLERS = {
    "analyze": _cmd_analyze,
    "auction": _cmd_auction,
    "vcg": _cmd_vcg,
    "facility": _cmd_facility,
    "voting": _cmd_voting,
    "verify-all": _cmd_verify_all,
    "export": _cmd_export,
}

_EXIT_CODES = (
    (ParseError, 2),
    (CapacityError, 4),
    (InternalConsistencyError, 5),
    (ValidationError, 3),
)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = _HANDLERS[args.command](args)
        _emit(text, args.out)
    except EngineError as error:
        for kind, code in _EXIT_CODES:
            if isinstance(error, kind):
                print(f"error: {error}", file=sys.stderr)
                return code
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
