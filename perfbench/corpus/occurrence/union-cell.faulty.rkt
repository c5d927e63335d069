(module union-cell
  (provide [store-len (-> (or/c integer? string?) integer?)])
  (define cell (box 0))
  (define (store-len v)
    (begin
      (set-box! cell v)
      (if (string? (unbox cell))
          (unbox cell)
          (string-length (unbox cell))))))
