"""`assess.classify` as it was before it lexed candidates against the
reference: each non-exact candidate tested and parsed in full on its own,
the reference parsed on the first AST verdict. Kept as the oracle for the
differential test in `test_assess.py`; it runs the suite through the same
`test` callable as `classify`, so a test can hand both one fake.
"""
from repairkit.assess import FAIL, NOT_RUN, PASS, AssessmentVerdict, exact_match
from repairkit.errors import ParseError
from repairkit.syntax import ast_key, parse


def oracle_classify(candidates, reference, test=None):
    verdicts = []
    reference_key = None  # parsed on first need, at most once per call
    for candidate in candidates:
        if candidate.reconstructed is None:
            verdicts.append(
                AssessmentVerdict(candidate.rank, False, NOT_RUN, False, False)
            )
            continue
        text = candidate.reconstructed
        if exact_match(text, reference):
            verdicts.append(
                AssessmentVerdict(candidate.rank, True, PASS, True, True)
            )
            continue
        if test is not None:
            run = test(text)
            plausible = PASS if run.outcome == PASS else FAIL
        else:
            plausible = NOT_RUN
        try:
            key = ast_key(parse(text))
        except ParseError:
            key = None
        ast = False
        if key is not None and plausible != FAIL:
            if reference_key is None:
                reference_key = ast_key(parse(reference))
            ast = key == reference_key
        verdicts.append(
            AssessmentVerdict(candidate.rank, key is not None, plausible, False, ast)
        )
    return verdicts
