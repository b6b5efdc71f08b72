"""The rank of a generic matrix on a Young diagram, by bipartite matching.

A generic matrix's rank is its support's term rank: the most boxes no two
in a row or a column, a maximum matching between rows and columns. Found
here by augmenting paths (Kuhn's algorithm) over the boxes themselves, with
no use of the diagram's shape.
"""


def matching_rank(parts) -> int:
    """The largest matching of rows to columns over the boxes of the diagram ``parts``."""
    owner = {}  # column -> the row matched to it

    def augment(row, seen):
        for col in range(parts[row]):
            if col not in seen:
                seen.add(col)
                if col not in owner or augment(owner[col], seen):
                    owner[col] = row
                    return True
        return False

    return sum(augment(row, set()) for row in range(len(parts)))
