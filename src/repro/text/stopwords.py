"""Italian stop-word list used by the full-text analyzer.

The list mirrors the one shipped with Lucene's Italian analyzer
(``it-analyzer-lucene-full`` in Azure AI Search terminology): articles,
prepositions, pronouns, common auxiliary verb forms and conjunctions.
Stop words are removed *after* elision splitting and lower-casing, so the
entries here are plain lower-case word forms.
"""

from __future__ import annotations

# Core function words: articles, simple and articulated prepositions.
_ARTICLES_PREPOSITIONS = """
il lo la i gli le un uno una
di a da in con su per tra fra
del dello della dei degli delle
al allo alla ai agli alle
dal dallo dalla dai dagli dalle
nel nello nella nei negli nelle
col coi sul sullo sulla sui sugli sulle
"""

# Pronouns and demonstratives.
_PRONOUNS = """
io tu lui lei noi voi loro
mi ti ci vi si ne li
me te se ce ve
mio mia miei mie tuo tua tuoi tue
suo sua suoi sue nostro nostra nostri nostre
vostro vostra vostri vostre
questo questa questi queste
quello quella quelli quelle quegli quei
chi che cui qual quale quali quanto quanta quanti quante
"""

# Conjunctions, adverbs, and common particles.
_CONNECTIVES = """
e ed o od ma se anche come dove quando perche perché
piu più meno molto poco tanto tutto tutti tutta tutte
non piu' gia già ancora sempre mai qui qua li lì la' là
allora quindi dunque pero però inoltre oppure ovvero cioe cioè
"""

# High-frequency forms of essere / avere / fare / stare / dovere / potere.
_VERB_FORMS = """
è e' sono sei siamo siete era erano ero eri eravamo eravate
sia siano sarebbe sarebbero sara sarà saranno essere stato stata stati state
ho hai ha abbiamo avete hanno aveva avevano avevo avevi
avere avuto abbia abbiano avrebbe avrà avranno
fa fai faccio facciamo fate fanno fare fatto faceva
sto stai sta stiamo state stanno stare
devo devi deve dobbiamo dovete devono dovere
posso puoi puo può possiamo potete possono potere
voglio vuoi vuole vogliamo volete vogliono volere
"""

ITALIAN_STOPWORDS: frozenset[str] = frozenset(
    word
    for block in (_ARTICLES_PREPOSITIONS, _PRONOUNS, _CONNECTIVES, _VERB_FORMS)
    for word in block.split()
)
