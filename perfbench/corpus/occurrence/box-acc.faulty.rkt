(module box-acc
  (provide [bump (-> integer? integer?)])
  (define acc (box 0))
  (define (bump n)
    (begin
      (set-box! acc (+ (unbox acc) n))
      (assert (>= (unbox acc) 0))
      (unbox acc))))
