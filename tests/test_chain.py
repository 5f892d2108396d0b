import pytest
from hypothesis import given, strategies as st

from sgqa.chain import EmptyCompletionError, parse_chain


def test_parse_chain_full_example():
    completion = (
        "Prince Jean was the youngest child of Prince Robert. "
        "So the answer is: Prince Robert, Duke of Chartres."
    )
    chain = parse_chain(completion)
    assert chain.sentences == ("Prince Jean was the youngest child of Prince Robert.",)
    assert chain.extracted_answer == "Prince Robert, Duke of Chartres"
    assert chain.used_fallback is False


def test_parse_chain_answer_only():
    chain = parse_chain("So the answer is: Stange")
    assert chain.sentences == ()
    assert chain.extracted_answer == "Stange"


def test_parse_chain_no_pattern_falls_back_to_sentence():
    chain = parse_chain("The graph does not provide information about the question.")
    assert chain.extracted_answer == "The graph does not provide information about the question"
    assert chain.used_fallback is True


def test_parse_chain_fallback_after_final_colon():
    chain = parse_chain("Some reasoning happened. Final result: Stange")
    assert chain.extracted_answer == "Stange"
    assert chain.used_fallback is True


def test_parse_chain_case_insensitive_no_colon():
    chain = parse_chain("so the answer is Stange.")
    assert chain.extracted_answer == "Stange"


def test_parse_chain_uses_last_occurrence():
    completion = "So the answer is: wrong. Checking again. So the answer is: right."
    chain = parse_chain(completion)
    assert chain.extracted_answer == "right"
    assert chain.sentences == ("So the answer is: wrong.", "Checking again.")


def test_parse_chain_strips_quotes():
    chain = parse_chain('So the answer is: "Stange".')
    assert chain.extracted_answer == "Stange"


def test_parse_chain_empty_raises():
    with pytest.raises(EmptyCompletionError):
        parse_chain("")
    with pytest.raises(EmptyCompletionError):
        parse_chain("   \n  ")


def test_parse_chain_answer_is_substring():
    completions = [
        "A relates to B. So the answer is: B.",
        "No pattern here at all",
        "Step one. Step two. Conclusion: something else",
    ]
    for completion in completions:
        chain = parse_chain(completion)
        assert chain.extracted_answer in completion


@given(st.text(min_size=1).filter(lambda s: s.strip()))
def test_parse_chain_total_on_nonempty(text):
    chain = parse_chain(text)
    assert chain.extracted_answer in text
    assert all(sentence in text for sentence in chain.sentences)
