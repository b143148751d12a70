"""Command line entry point.

Subcommands cover game analysis, the auction and mechanism testbeds,
the verification battery, and game export.  All output is byte-stable
for fixed inputs, flags, and seed: rationals print as p/q and reports
carry no timestamps.  Each report opens with a line naming its kind and
version (see ``_report``).  The ``dfpa``, ``all-pay``, ``facility`` and
``voting`` reports and the structured ``analyze`` report end with the
serialized game they talk about, so verdicts can be re-checked offline;
the ``vcg``, ``vcg-attack`` and ``fpa-witness`` reports embed no game.

Exit codes: 0 success, 2 parse error, 3 validation error, 4 capacity
error, 5 internal consistency error (a violated theorem; the message
carries the witness).
"""
from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Sequence

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


# More places than this is a usage error; the digits stay far below str()'s int limit.
MAX_DECIMAL_PLACES = 100


def _decimal_suffix(value: Fraction, places: int | None) -> str:
    """``value`` rounded half to even at ``places`` decimals; a negative value
    that rounds to zero keeps its sign, as float formatting does."""
    if places is None:
        return ""
    digits = str(abs(round(value * 10**places))).rjust(places + 1, "0")
    if places:
        digits = f"{digits[:-places]}.{digits[-places:]}"
    return f" (approx {'-' if value < 0 else ''}{digits}, display only)"


def _scalar_cell(value: Fraction, places: int | None) -> str:
    return format_scalar(value) + _decimal_suffix(value, places)


def _letters(first: str, count: int) -> tuple[str, ...]:
    """``count`` labels from ``first`` on: item letters ``a b ...``, agent letters ``A B ...``."""
    return tuple(chr(ord(first) + i) for i in range(count))


def _report(kind: str, lines: list[str], game: AgentGame | None = None) -> str:
    """The report of ``kind``: its versioned header line, then ``lines``,
    then ``game`` when the report embeds the game it talks about."""
    text = "\n".join([f"{kind} report v1", *lines]) + "\n"
    return text if game is None else text + format_game(game)


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
            concept = Concept(token)
        except ValueError:
            known = ", ".join(c.value for c in Concept)
            raise ValidationError(f"unknown concept {token!r}; known: {known}") from None
        if concept in out:
            raise ValidationError(f"concept {token!r} is listed twice")
        out.append(concept)
    if not out:
        raise ParseError("empty concept list")
    return tuple(out)


# ---------------------------------------------------------------------------
# scenario files


# Each kind's (required, optional) fields; every kind also takes SCENARIO_COMMON.
SCENARIO_SCHEMA = {
    "raw-game": ({"game-file"}, set()),
    "dfpa": ({"value", "epsilon"}, {"cap"}),
    "all-pay": ({"value", "epsilon", "cap"}, set()),
    "fpa-witness": ({"value", "bid"}, set()),
    "vcg-attack": ({"items", "valuation", "bid"}, {"epsilon", "nature", "payment-rule"}),
    "facility": ({"agents", "type"}, {"grid-step"}),
    "voting": ({"rule", "utilities"}, {"tally-cap"}),
    "curated": ({"name"}, set()),
}
SCENARIO_COMMON = {"concepts", "format"}
_ANALYZE_FORMATS = ("structured", "csv", "table")


class Scenario:
    """A testbed's inputs: a kind plus key/value fields, checked against
    ``SCENARIO_SCHEMA``.  ``source`` names where they came from (a scenario
    file or a command's flags) in the messages."""

    def __init__(self, kind: str, fields: dict[str, list[str]], source: str, base_dir: str = ""):
        if kind not in SCENARIO_SCHEMA:
            known = ", ".join(sorted(SCENARIO_SCHEMA))
            raise ValidationError(f"{source}: unknown scenario kind {kind!r}; known: {known}")
        required, optional = SCENARIO_SCHEMA[kind]
        for key in fields:
            if key not in required | optional | SCENARIO_COMMON:
                raise ValidationError(f"{source}: field {key!r} is not valid for kind {kind!r}")
        missing = required - set(fields)
        if missing:
            raise ParseError(
                f"{source}: kind {kind!r} is missing field(s) {', '.join(sorted(missing))}"
            )
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
    scenario = Scenario(kind, fields, path, os.path.dirname(os.path.abspath(path)))
    # The common fields are checked here, so every command refuses a bad one.
    _parse_concepts(scenario.optional("concepts"))
    fmt = scenario.optional("format")
    if fmt is not None and fmt not in _ANALYZE_FORMATS:
        raise ValidationError(f"unknown format {fmt!r}")
    return scenario


def _scenario_game(scenario: Scenario) -> AgentGame:
    """Build the AgentGame a game-kind scenario describes."""
    kind = scenario.kind
    if kind == "raw-game":
        path = scenario.single("game-file")
        if not os.path.isabs(path):
            path = os.path.join(scenario.base_dir, path)
        return parse_game(_read_text(path, "game file"))
    if kind == "dfpa":
        return singleitem.dfpa_game(_dfpa_spec(scenario))
    if kind == "all-pay":
        return singleitem.all_pay_game(*_scalars(scenario, "value", "epsilon", "cap"))
    if kind == "facility":
        return mechanisms.facility_game(_facility_spec(scenario))
    if kind == "voting":
        return mechanisms.psr_game(_psr_spec(scenario)[1])
    if kind == "curated":
        return instances.curated_game(scenario.single("name"))
    raise ValidationError(f"scenario kind {kind!r} does not describe a single game")


def _flag_scenario(kind: str, args: argparse.Namespace) -> Scenario:
    """The scenario of ``kind`` whose fields are the flags that kind takes;
    the command's other flags are ignored."""
    required, optional = SCENARIO_SCHEMA[kind]
    values = {key: getattr(args, key.replace("-", "_")) for key in sorted(required | optional)}
    fields = {key: [value] for key, value in values.items() if value is not None}
    return Scenario(kind, fields, f"{args.command} flags")


def _scalars(scenario: Scenario, *keys: str) -> tuple[Fraction, ...]:
    return tuple(map(parse_scalar, [scenario.single(key) for key in keys]))


def _dfpa_spec(scenario: Scenario) -> singleitem.DfpaSpec:
    cap = scenario.optional("cap")
    value, epsilon = _scalars(scenario, "value", "epsilon")
    if not cap:
        return singleitem.default_dfpa_spec(value, epsilon)
    return singleitem.DfpaSpec(value, epsilon, parse_scalar(cap))


def _facility_spec(scenario: Scenario) -> mechanisms.FacilitySpec:
    agents = _parse_int(scenario.single("agents"), "agents")
    my_type, step = scenario.single("type"), scenario.optional("grid-step")
    # The default grid step 1/(4n) is defined only once n is a valid count.
    if agents < 2:
        raise ValidationError(f"need at least 2 agents, got {agents}")
    step = parse_scalar(step) if step else Fraction(1, 4 * agents)
    return mechanisms.FacilitySpec(agents, parse_scalar(my_type), step)


_VOTING_RULES = {"plurality": mechanisms.plurality_spec, "approval": mechanisms.approval_spec}


def _psr_spec(scenario: Scenario) -> tuple[str, mechanisms.PsrSpec]:
    """The voting rule's name and its spec."""
    rule, utilities = scenario.single("rule"), scenario.single("utilities")
    cap = scenario.optional("tally-cap")
    cap = _parse_int(cap, "tally-cap") if cap is not None else None
    values = tuple(parse_scalar(tok) for tok in utilities.replace(",", " ").split())
    if rule not in _VOTING_RULES:
        raise ValidationError(f"unknown voting rule {rule!r}; known: {', '.join(_VOTING_RULES)}")
    return rule, _VOTING_RULES[rule](len(values), values, cap)


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
    if epsilon is not None:
        vcg.bid_grid_step(epsilon, items)  # every command refuses a step that is not positive
    return valuation, bids, nature, epsilon


# ---------------------------------------------------------------------------
# analyze


def _analyze_text(game: AgentGame, chosen: tuple[Concept, ...], fmt: str) -> str:
    verdicts = concepts.concept_verdicts(game, chosen)
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
        if scenario.kind == "fpa-witness":
            return _fpa_witness_text(*_scalars(scenario, "value", "bid"))
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
    return _analyze_text(game, chosen, fmt)


# ---------------------------------------------------------------------------
# auctions


def _check_formula(what: str, engine: set[str], formula: tuple[Fraction, ...]) -> None:
    if engine != {format_scalar(bid) for bid in formula}:
        bids = " ".join(map(format_scalar, formula))
        raise InternalConsistencyError(
            f"engine {what} bids {sorted(engine)} differ from the formula's {bids}"
        )


def _dfpa_text(spec: singleitem.DfpaSpec, decimal: int | None) -> str:
    value, epsilon = spec.value, spec.epsilon
    game = singleitem.dfpa_game(spec)
    la_bid = singleitem.dfpa_loss_averse_bid(value, epsilon)
    regret_set = singleitem.dfpa_min_max_regret_set(value, epsilon)
    leximin_set = singleitem.dfpa_leximin_set(value, epsilon)
    engine_la = concepts.loss_averse_actions(game)
    engine_regret = concepts.min_max_regret_actions(game)
    engine_leximin = concepts.leximin_actions(game)
    _check_formula("loss-averse", engine_la, (la_bid,))
    _check_formula("regret", engine_regret, regret_set)
    _check_formula("leximin", engine_leximin, leximin_set)
    lines = [
        f"value {format_scalar(spec.value)}",
        f"step {format_scalar(spec.epsilon)}",
        f"cap {format_scalar(spec.nature_bid_cap)}",
        f"loss-averse-bid {_scalar_cell(la_bid, decimal)}",
        "min-max-regret-bids " + " ".join(_scalar_cell(b, decimal) for b in regret_set),
        "leximin-bids " + " ".join(_scalar_cell(b, decimal) for b in leximin_set),
        f"engine-loss-averse {_set_line(game, engine_la)}",
        f"engine-min-max-regret {_set_line(game, engine_regret)}",
        f"engine-leximin {_set_line(game, engine_leximin)}",
    ]
    return _report("dfpa", lines, game)


def _allpay_text(value: Fraction, epsilon: Fraction, cap: Fraction, decimal: int | None) -> str:
    game = singleitem.all_pay_game(value, epsilon, cap)
    closed = singleitem.all_pay_loss_averse_bid(value)
    engine_la = concepts.loss_averse_actions(game)
    _check_formula("loss-averse", engine_la, (closed,))
    lines = [
        f"value {format_scalar(value)}",
        f"step {format_scalar(epsilon)}",
        f"cap {format_scalar(cap)}",
        f"loss-averse-bid {_scalar_cell(closed, decimal)}",
        f"engine-loss-averse {_set_line(game, engine_la)}",
    ]
    return _report("all-pay", lines, game)


def _fpa_witness_text(value: Fraction, bid: Fraction) -> str:
    witness = singleitem.fpa_no_loss_averse_witness(value, bid)
    if not singleitem.verify_fpa_witness(witness):
        raise InternalConsistencyError(f"witness failed re-derivation: {witness}")
    lines = [
        f"value {format_scalar(witness.value)}",
        f"bid {format_scalar(witness.bid)}",
        f"deviation {format_scalar(witness.deviation)}",
        f"difference-state {format_scalar(witness.state)}",
        f"bid-min {format_scalar(witness.bid_min)}",
        f"deviation-min {format_scalar(witness.deviation_min)}",
        "verified strict",
    ]
    return _report("fpa-witness", lines)


_AUCTION_KINDS = {"dfpa": "dfpa", "allpay": "all-pay", "fpa-witness": "fpa-witness"}


def _cmd_auction(args: argparse.Namespace) -> str:
    scenario = _flag_scenario(_AUCTION_KINDS[args.mechanism], args)
    if scenario.kind == "dfpa":
        return _dfpa_text(_dfpa_spec(scenario), args.decimal)
    if scenario.kind == "all-pay":
        return _allpay_text(*_scalars(scenario, "value", "epsilon", "cap"), args.decimal)
    return _fpa_witness_text(*_scalars(scenario, "value", "bid"))


# ---------------------------------------------------------------------------
# vcg


def _bid_labels(profiles: Sequence[vcg.SybilProfile]) -> list[str]:
    """Agent ``A``'s one bid is ``A``; its several bids are ``A1 A2 ...``."""
    labels = []
    for agent, profile in zip(_letters("A", len(profiles)), profiles):
        count = len(profile.bids)
        labels += [agent] if count == 1 else [f"{agent}{j}" for j in range(1, count + 1)]
    return labels


def _classification_lines(
    classification: vcg.AttackClassification, items: tuple[str, ...]
) -> list[str]:
    lines = [f"classification {classification.kind.value}"]
    mask = classification.witness_mask
    if mask is not None:
        lines.append(f"classification-witness {vcg.bundle_label(mask, items)}")
    return lines


def _vcg_text(
    head: list[str], classification: vcg.AttackClassification, outcome: vcg.VcgOutcome,
    labels: list[str], decimal: int | None, tail: list[str],
) -> str:
    """The ``vcg`` report of one run: ``head``, the attack's class, each
    bid's bundle and payment under ``labels``, the welfare, each agent's
    utility, then ``tail``."""
    items = _letters("a", outcome.item_count)
    lines = head + _classification_lines(classification, items)
    lines.append(f"payment-rule {outcome.payment_rule.value}")
    for label, bundle, payment in zip(labels, outcome.bundles, outcome.payments):
        bundle = vcg.bundle_label(bundle, items)
        lines.append(f"allocation {label} {bundle} payment {_scalar_cell(payment, decimal)}")
    lines.append(f"observed-welfare {_scalar_cell(outcome.observed_welfare, decimal)}")
    lines.append(f"real-welfare {_scalar_cell(outcome.real_welfare, decimal)}")
    utilities = outcome.agent_utilities
    for agent, utility in zip(_letters("A", len(utilities)), utilities):
        lines.append(f"agent-utility {agent} {_scalar_cell(utility, decimal)}")
    return _report("vcg", lines + tail)


def _curated_vcg_text(
    name: str, epsilon: Fraction, rule: vcg.PaymentRule, decimal: int | None
) -> str:
    """The run of the worked instance ``name`` under ``rule``; its truthful
    run is scored under the Clarke rule."""
    if name not in AUCTION_REGISTRY:
        known = ", ".join(AUCTION_REGISTRY)
        raise ValidationError(f"unknown auction instance {name!r}; known: {known}")
    split_pair = name == "example-e1"
    build = vcg.build_split_pair_instance if split_pair else vcg.build_singleton_split_instance
    report = build(epsilon)
    clarke = rule is vcg.PaymentRule.CLARKE_PIVOT
    outcome = report.attack_outcome if clarke else report.attack_outcome_literal
    truth = report.truthful_outcome
    if split_pair:
        labels = _bid_labels(report.profiles)
        tail = [
            f"truthful-welfare {_scalar_cell(truth.observed_welfare, decimal)}",
            f"truthful-agent-utility A {_scalar_cell(truth.agent_utilities[0], decimal)}",
            *(f"source-discrepancy {note}" for note in report.discrepancies),
        ]
    else:
        labels = _bid_labels(report.profiles[:1]) + ["nature"]
        tail = [
            f"attack-utility {_scalar_cell(outcome.agent_utilities[0], decimal)}",
            f"truth-utility {_scalar_cell(truth.agent_utilities[0], decimal)}",
        ]
    head = [f"instance {name}", f"step {format_scalar(epsilon)}"]
    return _vcg_text(head, report.classification, outcome, labels, decimal, tail)


def _vcg_run_scenario_text(scenario: Scenario, rule_name: str, decimal: int | None) -> str:
    # The scenario's rule overrides the flag, as its format and concepts do.
    rule = _payment_rule(scenario.optional("payment-rule", rule_name))
    valuation, bids, nature, epsilon = _vcg_attack_from(scenario)
    profiles = [vcg.SybilProfile(valuation, bids)]
    if nature is not None:
        profiles.append(vcg.SybilProfile.truthful(nature))
    outcome = vcg.run_vcg(profiles, valuation.item_count, epsilon=epsilon, payment_rule=rule)
    head = ["instance scenario", f"items {valuation.item_count}"]
    classification = vcg.classify_attack(valuation, bids)
    return _vcg_text(head, classification, outcome, _bid_labels(profiles), decimal, [])


def _cmd_vcg(args: argparse.Namespace) -> str:
    action = args.action
    if action == "verify-theorem":
        return _verify_theorem_text(args.budget, args.seed)
    if action == "run" and args.curated:
        epsilon = parse_scalar(args.epsilon) if args.epsilon else Fraction(1, 10)
        rule = _payment_rule(args.payment_rule)
        return _curated_vcg_text(args.curated, epsilon, rule, args.decimal)
    # run, classify and adversary read their vcg-attack scenario alike.
    if not args.scenario:
        what = "--curated or --scenario" if action == "run" else "--scenario"
        raise ParseError(f"vcg {action} needs {what}")
    scenario = parse_scenario(args.scenario)
    if scenario.kind != "vcg-attack":
        raise ValidationError(f"vcg {action} needs a vcg-attack scenario, got {scenario.kind!r}")
    if action == "run":
        return _vcg_run_scenario_text(scenario, args.payment_rule, args.decimal)
    valuation, bids, _, eps = _vcg_attack_from(scenario)
    items = _letters("a", valuation.item_count)
    classification = vcg.classify_attack(valuation, bids)
    lines = [f"items {valuation.item_count}", *_classification_lines(classification, items)]
    lines.append("best-partition " + " ".join(map(format_scalar, classification.best_partition)))
    if action == "adversary":
        lines += _adversary_lines(valuation, bids, classification, eps, items)
    return _report("vcg-attack", lines)


def _adversary_lines(
    valuation: vcg.CombValuation,
    bids: tuple[vcg.CombBid, ...],
    classification: vcg.AttackClassification,
    epsilon: Fraction | None,
    items: tuple[str, ...],
) -> list[str]:
    # Truth's certificate scans whole levels, the adversaries' family half steps too.
    exact = classification.kind is vcg.AttackKind.EXACT_BIDDING
    levels = (0, 1, 2) if exact else (0, Fraction(1, 2), 1, Fraction(3, 2), 2)
    family = vcg.nature_state_family(valuation.item_count, levels)
    _, found, check = vcg.certify_attack(valuation, bids, family, epsilon)
    if exact:
        lines = [f"certificate {found.mode}"]
    else:
        lines = [f"adversary-refuted {'yes' if found.refuted else 'no'}"]
        if found.refuted:
            lines.append(f"adversary-form {found.form}")
            lines.append(f"adversary-witness {vcg.bundle_label(found.witness_mask, items)}")
    # A case-1 certificate and a refuting report both carry their nature bid,
    # and both utilities are run through the mechanism again before they print.
    if found.adversary is not None:
        for name, attack, printed in (
            ("attack", bids, found.attack_utility),
            ("truth", (valuation,), found.truth_utility),
        ):
            utility = vcg.utility_against(valuation, attack, [found.adversary])
            if utility != printed:
                raise InternalConsistencyError(
                    f"{name} utility {format_scalar(printed)} against the adversary, "
                    f"but the mechanism gives {format_scalar(utility)}"
                )
        lines.append("adversary " + " ".join(format_scalar(v) for v in found.adversary.values))
        lines.append(f"attack-utility {format_scalar(found.attack_utility)}")
        lines.append(f"truth-utility {format_scalar(found.truth_utility)}")
    elif check is not None:
        lines.append(f"family-size {check.family_size}")
        lines.append(f"difference-states {check.difference_states}")
        if check.standing == "equivalent":
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
    spec = _facility_spec(_flag_scenario("facility", args))
    agents, my_type, step = spec.agent_count, spec.my_type, spec.others_grid_step
    game = mechanisms.facility_game(spec)
    closed = mechanisms.facility_loss_averse_report(my_type, agents)
    engine_la = concepts.loss_averse_actions(game)
    engine_sl = concepts.safety_level_actions(game)
    demo = mechanisms.facility_welfare_loss_demo(agents)
    lines = [
        f"agents {agents}",
        f"type {format_scalar(my_type)}",
        f"grid-step {format_scalar(step)}",
        f"closed-form-report {_scalar_cell(closed, args.decimal)}",
        f"engine-loss-averse {_set_line(game, engine_la)}",
        f"engine-safety-level {_set_line(game, engine_sl)}",
        f"worst-case-welfare-loss {_scalar_cell(demo.welfare_loss, args.decimal)}",
    ]
    return _report("facility", lines, game)


def _cmd_voting(args: argparse.Namespace) -> str:
    rule, spec = _psr_spec(_flag_scenario("voting", args))
    utilities = spec.cardinal_utilities
    game = mechanisms.psr_game(spec)
    # The rule's own lines build games at tally cap 2, which the cell budget
    # may refuse, so they run before the frontier's loop over ballot pairs.
    if rule == "plurality":
        mixture = mechanisms.plurality_mixed_loss_averse(utilities)
        level = mechanisms.plurality_mixed_equalization(utilities)
        truthful = mechanisms.plurality_min_max_regret(utilities)
        rule_lines = [
            "mixed-loss-averse "
            + " ".join(f"{label}:{format_scalar(p)}" for label, p in mixture.entries),
            f"pivotal-expected-utility {_scalar_cell(level, args.decimal)}",
            f"min-max-regret-ballot {mechanisms.ballot_label(truthful)}",
            f"max-regret {_scalar_cell(concepts.max_regret(game, mechanisms.ballot_label(truthful)), args.decimal)}",
        ]
    else:
        k = mechanisms.approval_min_max_regret_top_k(utilities)
        ballot = mechanisms.approval_top_k_ballot(len(utilities), k)
        rule_lines = [
            f"min-max-regret-top-k {k}",
            f"min-max-regret-ballot {mechanisms.ballot_label(ballot)}",
        ]
    frontier = mechanisms.voting_pareto_frontier_loss_averse(spec)
    engine_la = concepts.loss_averse_actions(game)
    lines = [
        f"rule {rule}",
        "utilities " + " ".join(format_scalar(u) for u in utilities),
        f"tally-cap {spec.tally_cap}",
        "frontier " + " ".join(mechanisms.ballot_label(v) for v in frontier),
        f"engine-loss-averse {_set_line(game, engine_la)}",
        *rule_lines,
    ]
    return _report("voting", lines, game)


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


def _places(text: str) -> int:
    """A ``--decimal`` value: a count of places, from 0 to ``MAX_DECIMAL_PLACES``."""
    if not text.isdecimal() or len(text) > 3 or int(text) > MAX_DECIMAL_PLACES:
        raise argparse.ArgumentTypeError(
            f"decimal places must be an integer from 0 to {MAX_DECIMAL_PLACES}, got {text[:40]!r}"
        )
    return int(text)


class _Parser(argparse.ArgumentParser):
    """A usage error is a parse error: ``main`` reports it and returns 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise ParseError(f"{message}\n{self.format_usage().rstrip()}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line's parser, built on the first call and then reused:
    each ``parse_args`` call starts from a fresh namespace."""
    parser = _Parser(
        prog="robustgames",
        description="Exact solvers for robust solution concepts and mechanism testbeds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, decimal: bool = True) -> None:
        p.add_argument("--out", help="write the report to this file instead of stdout")
        if decimal:
            p.add_argument(
                "--decimal",
                type=_places,
                metavar="PLACES",
                help="append approximate decimals to exact values (display only)",
            )

    def add_battery(p: argparse.ArgumentParser) -> None:
        p.add_argument("--budget", choices=tuple(sorted(verification.BUDGETS)), default="default")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("analyze", help="concept analysis of a finite game")
    p.add_argument("--curated", help="curated game name: " + ", ".join(GAME_REGISTRY))
    p.add_argument("--game", help="path to an agentgame v1 file")
    p.add_argument("--scenario", help="path to a scenario v1 file")
    p.add_argument("--concepts", help="comma-separated concept list (default: all)")
    p.add_argument("--format", choices=_ANALYZE_FORMATS, default="structured")
    add_common(p)

    p = sub.add_parser("auction", help="single-item auction testbeds")
    p.add_argument("mechanism", choices=tuple(_AUCTION_KINDS))
    p.add_argument("--value", help="agent's value for the item")
    p.add_argument("--epsilon", help="bid grid step")
    p.add_argument("--cap", help="top rival bid cap")
    p.add_argument("--bid", help="bid to refute (fpa-witness)")
    add_common(p)

    p = sub.add_parser("vcg", help="combinatorial auction attacks")
    p.add_argument("action", choices=("run", "classify", "adversary", "verify-theorem"))
    p.add_argument("--curated", help="auction instance: " + ", ".join(AUCTION_REGISTRY))
    p.add_argument("--scenario", help="path to a vcg-attack scenario file")
    p.add_argument(
        "--epsilon",
        help="valuation grid step of a curated run (default 1/10); a scenario sets its own",
    )
    p.add_argument(
        "--payment-rule",
        choices=tuple(rule.value for rule in vcg.PaymentRule),
        default="clarke",
        help="pivot payments or the source text's literal formula",
    )
    add_battery(p)
    add_common(p)

    p = sub.add_parser("facility", help="facility location under the mean rule")
    p.add_argument("--agents", help="number of agents reporting, at least 2")
    p.add_argument("--type", help="agent's ideal point in [0, 1]")
    p.add_argument("--grid-step", help="grid step for the others' report sum")
    add_common(p)

    p = sub.add_parser("voting", help="positional scoring rule testbeds")
    p.add_argument("--rule", choices=tuple(_VOTING_RULES))
    p.add_argument("--utilities", help="comma-separated cardinal utilities, 1 down to 0")
    p.add_argument("--tally-cap", help="max aggregate score from other voters")
    add_common(p)

    # verify-all and export print no value that a decimal could follow.
    p = sub.add_parser("verify-all", help="run the full verification battery")
    add_battery(p)
    add_common(p, decimal=False)

    p = sub.add_parser("export", help="serialize a game to the canonical document")
    p.add_argument("--curated", help="curated game name: " + ", ".join(GAME_REGISTRY))
    p.add_argument("--scenario", help="path to a game-kind scenario file")
    add_common(p, decimal=False)

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
    try:
        args = build_parser().parse_args(argv)
        text = _HANDLERS[args.command](args)
        _emit(text, args.out)
    except EngineError as error:
        print(f"error: {error}", file=sys.stderr)
        return next((code for kind, code in _EXIT_CODES if isinstance(error, kind)), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
