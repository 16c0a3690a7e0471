max_prefix_gen(L, M, A) :-
    L = [],
    M = A,
    integer(M).

max_prefix_gen(L, M, A) :-
    L = [H | T],
    plus(H, A, A1),
    max_prefix_gen(T, M1, A1),
    max(A1, M1, M).

max_prefix_gen__d2(L, M, A) :-
    integer(M),
    L = [],
    M = A.

max_prefix_gen__d2(L, M, A) :-
    integer(M),
    L = [H | T],
    plus(H, A, A1),
    max_prefix_gen(T, M1, A1),
    max(A1, M1, M).

max_prefix(L, M) :-
    max_prefix_gen(L, M, -infinite).

max_prefix__d2(L, M) :-
    integer(M),
    max_prefix_gen__d2(L, M, -infinite).
