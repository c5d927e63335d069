(module box-flip
  (provide [flip (-> integer? integer?)])
  (define st (box 0))
  (define (flip n)
    (begin
      (assert (zero? (unbox st)))
      (set-box! st 1)
      (assert (= (unbox st) 1))
      (set-box! st 0)
      n)))
