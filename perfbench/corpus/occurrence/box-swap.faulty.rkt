(module box-swap
  (provide [toggle (-> (or/c integer? boolean?) integer?)])
  (define cell (box 0))
  (define (toggle v)
    (begin
      (set-box! cell v)
      (if (integer? (unbox cell))
          (/ 100 (unbox cell))
          0))))
