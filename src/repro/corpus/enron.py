"""Synthetic corporate-email corpus generator.

Stands in for the public Enron dataset (Klimt & Yang, CEAS 2004), which is
not available offline.  The generator produces business emails for a
fictitious energy company with the statistical properties the paper's
analysis needs: a heavy core of business vocabulary shared by all topics,
and a thin tail of finance/personal-sensitive emails that search-driven
attackers ("gold diggers") can surface.

Emails are plain data (:class:`GeneratedEmail`); the mapping layer turns
them into mailbox-ready messages for each honey account.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from itertools import accumulate

from repro.errors import ConfigurationError
from repro.corpus import wordbank
from repro.corpus.names import FIRST_NAMES, LAST_NAMES

#: Corpus "original" timeframe (pre-remapping), echoing Enron's 1999-2002.
_CORPUS_START = datetime(2000, 1, 3, 8, 0, tzinfo=timezone.utc)
_CORPUS_SPAN_DAYS = 700

_SUBJECT_TEMPLATES: tuple[str, ...] = (
    "RE: {topic_word} {core_word} for {counterparty}",
    "{core_word} {topic_word} update",
    "FW: {topic_word} {core_word}",
    "{counterparty} {topic_word} review",
    "Action needed: {topic_word} {core_word}",
    "{core_word} schedule for {counterparty}",
)

_OPENINGS: tuple[str, ...] = (
    "Please review the {core_word} {topic_word} attached to this email.",
    "Following our meeting about the {topic_word}, here is the {core_word}.",
    "I wanted to give you an update about the {counterparty} {topic_word}.",
    "The {topic_word} {core_word} from {counterparty} came in this morning.",
    "As discussed, the {core_word} for the {topic_word} would be ready soon.",
)

_BODY_TEMPLATES: tuple[str, ...] = (
    "The {topic_word} group would like more information about the "
    "{core_word} before the original deadline.",
    "Our company needs the {core_word} numbers for the {topic_word} "
    "transfer by Thursday.",
    "Energy prices moved again, so the {topic_word} {core_word} should be "
    "revised before we transfer the position.",
    "Please provide the original {core_word} so the {topic_word} team can "
    "complete the review.",
    "I attached the {core_word} about the {counterparty} {topic_word} for "
    "your information.",
    "The power desk asked about the {topic_word} {core_word}; please "
    "forward any information you have.",
    "Would you confirm the {core_word} details so we can update the "
    "{topic_word} schedule?",
    "This email includes the {topic_word} {core_word} that {counterparty} "
    "requested about the agreement.",
)

_CLOSINGS: tuple[str, ...] = (
    "Please let me know if you would like to discuss.",
    "Thanks for your help with the {topic_word}.",
    "I will forward more information about the {core_word} tomorrow.",
    "Please call my office about any question.",
)

_COUNTERPARTIES: tuple[str, ...] = (
    "Westgate", "Calpine", "Dynegy", "Sempra", "Entergy", "Duke",
    "Mirant", "Reliant", "Aquila", "TransAlta",
)

#: The sentence a topic's body pool gains after the notes line.
_TOPIC_SENTENCES: dict[str, str] = {
    "finance": (
        "The payment account results are listed below the statement "
        "summary."
    ),
    "personal": (
        "Hope the family is doing great; see everyone at the birthday "
        "party."
    ),
}

# Everything below is fixed per topic or per character, so it is built
# once here instead of per email.  Each table holds exactly the
# sequence the draws always ran over, so every draw is unchanged.
_CHARACTERS: tuple[str, ...] = tuple(
    f"{first} {last}"
    for first, last in zip(FIRST_NAMES[:30], LAST_NAMES[:30])
)
#: A sender's recipients: every other character, in order.
_RECIPIENTS: dict[str, tuple[str, ...]] = {
    sender: tuple(c for c in _CHARACTERS if c != sender)
    for sender in _CHARACTERS
}
_TOPIC_NAMES: tuple[str, ...] = wordbank.topic_names()
#: Passed as ``cum_weights=``: ``choices`` would otherwise re-accumulate
#: the weights on every draw, to the same floats.
_TOPIC_CUM_WEIGHTS: list[float] = list(
    accumulate(wordbank.topic_weights())
)
_TOPIC_VOCABULARY: dict[str, tuple[str, ...]] = {
    topic: wordbank.topic_vocabulary(topic) for topic in _TOPIC_NAMES
}
#: The population the notes line samples its terms from.
_NOTE_TERMS: dict[str, tuple[str, ...]] = {
    topic: vocab + tuple(wordbank.GENERAL_FILLER)
    for topic, vocab in _TOPIC_VOCABULARY.items()
}


@dataclass(frozen=True)
class GeneratedEmail:
    """One synthetic corpus email, before honey-account remapping."""

    sender_name: str
    recipient_name: str
    subject: str
    body: str
    sent_at: datetime
    topic: str

    @property
    def text(self) -> str:
        """Subject + body, the text the TF-IDF analysis consumes."""
        return f"{self.subject}\n{self.body}"


@dataclass
class CorpusStats:
    """Aggregate statistics for a generated corpus (used in tests)."""

    email_count: int = 0
    topic_counts: dict[str, int] = field(default_factory=dict)


def _render(template: str, words: tuple[str, str, str]) -> str:
    topic_word, core_word, counterparty = words
    return template.format(
        topic_word=topic_word,
        core_word=core_word,
        counterparty=counterparty,
    )


class CorpusGenerator:
    """Generates deterministic synthetic corporate email.

    Args:
        rng: the randomness stream; a fixed seed yields a fixed corpus.
        company: company name woven into email bodies (pre-remapping this
            is the stand-in for "Enron"; the mapper replaces it).
    """

    def __init__(self, rng: random.Random, company: str = "Enrova") -> None:
        self._rng = rng
        self.company = company

    def _words(self, topic_vocab: tuple[str, ...]) -> tuple[str, str, str]:
        """Draw one template's ``(topic_word, core_word, counterparty)``."""
        choice = self._rng.choice
        return (
            choice(topic_vocab),
            choice(wordbank.CORE_BUSINESS),
            choice(_COUNTERPARTIES),
        )

    def _fill(self, template: str, topic_vocab: tuple[str, ...]) -> str:
        return _render(template, self._words(topic_vocab))

    def _body_sentences(
        self, topic: str, topic_vocab: tuple[str, ...]
    ) -> list[str]:
        """The body's middle sentences, sampled from the topic's pool.

        The pool is the eight body templates, a notes line of four
        sampled terms, and the topic's own sentence if it has one.
        Words for all eight templates are drawn, in order, whether or
        not ``sample`` keeps the sentence; only kept sentences are
        formatted.  ``sample`` over pool indices draws exactly what
        ``sample`` over the pool itself would.
        """
        rng = self._rng
        words = [self._words(topic_vocab) for _ in _BODY_TEMPLATES]
        # Topic flavour: extra topic/filler terms as a short notes line.
        extra_terms = rng.sample(_NOTE_TERMS[topic], k=4)
        topic_sentence = _TOPIC_SENTENCES.get(topic)
        notes_index = len(_BODY_TEMPLATES)
        pool_size = notes_index + 1 + (topic_sentence is not None)
        n_sentences = rng.randrange(3, 7)
        kept = rng.sample(range(pool_size), k=min(n_sentences, pool_size))
        sentences = []
        for index in kept:
            if index < notes_index:
                template = _BODY_TEMPLATES[index]
                sentences.append(_render(template, words[index]))
            elif index == notes_index:
                notes = ", ".join(sorted(extra_terms))
                sentences.append(f"Notes: {notes}.")
            else:
                sentences.append(topic_sentence)
        return sentences

    def generate_email(self) -> GeneratedEmail:
        """Generate a single email with a weighted-random topic."""
        topic = self._rng.choices(
            _TOPIC_NAMES, cum_weights=_TOPIC_CUM_WEIGHTS, k=1
        )[0]
        return self.generate_email_for_topic(topic)

    def generate_email_for_topic(self, topic: str) -> GeneratedEmail:
        """Generate a single email with the given topic."""
        vocab = _TOPIC_VOCABULARY.get(topic)
        if vocab is None:
            raise ConfigurationError(f"unknown topic {topic!r}")
        rng = self._rng
        sender = rng.choice(_CHARACTERS)
        recipient = rng.choice(_RECIPIENTS[sender])
        subject = self._fill(rng.choice(_SUBJECT_TEMPLATES), vocab)
        opening = self._fill(rng.choice(_OPENINGS), vocab)
        chosen = self._body_sentences(topic, vocab)
        closing = self._fill(rng.choice(_CLOSINGS), vocab)
        body_lines = [opening, *chosen, closing]
        body = "\n".join(body_lines)
        body += f"\n{sender}\n{self.company} Corporation"
        offset_days = rng.uniform(0, _CORPUS_SPAN_DAYS)
        sent_at = _CORPUS_START + timedelta(days=offset_days)
        return GeneratedEmail(
            sender_name=sender,
            recipient_name=recipient,
            subject=subject,
            body=body,
            sent_at=sent_at,
            topic=topic,
        )

    def generate_mailbox(self, email_count: int) -> list[GeneratedEmail]:
        """Generate a mailbox-sized batch sorted by send time.

        Raises:
            ConfigurationError: if ``email_count`` is not positive.
        """
        if email_count <= 0:
            raise ConfigurationError("email_count must be positive")
        emails = [self.generate_email() for _ in range(email_count)]
        emails.sort(key=lambda e: e.sent_at)
        return emails

    @staticmethod
    def stats(emails: list[GeneratedEmail]) -> CorpusStats:
        """Compute aggregate statistics over generated emails."""
        stats = CorpusStats(email_count=len(emails))
        for email in emails:
            stats.topic_counts[email.topic] = (
                stats.topic_counts.get(email.topic, 0) + 1
            )
        return stats
