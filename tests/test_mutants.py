"""The mutant table still fits the source: `python tests/mutants.py` runs the mutants themselves."""

from mutants import MUTANTS, source


def test_each_mutant_text_occurs_exactly_once():
    assert len({mutant.id for mutant in MUTANTS}) == len(MUTANTS)
    counts = {mutant.id: source(mutant).count(mutant.text) for mutant in MUTANTS}
    assert counts == dict.fromkeys(counts, 1)
