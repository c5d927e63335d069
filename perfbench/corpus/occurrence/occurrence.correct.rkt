(module occurrence
  (provide [succ-or-len (-> (or/c integer? string?) integer?)]
           [safe-inc (-> any/c integer?)]
           [bool-to-int (-> (or/c integer? boolean?) integer?)]
           [first-or-zero (-> any/c integer?)])
  (define (succ-or-len x) (if (integer? x) (+ x 1) (string-length x)))
  (define (safe-inc x) (if (integer? x) (+ x 1) 0))
  (define (bool-to-int x) (if (integer? x) x (if x 1 0)))
  (define (first-or-zero x) (if (pair? x) (if (integer? (car x)) (car x) 0) 0)))
