"""Word literals shared by the unit tests."""


def letters(s):
    return [ord(c) - ord("a") for c in s]


def bits(s):
    return [int(c) for c in s]
