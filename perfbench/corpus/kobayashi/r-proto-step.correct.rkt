(module r-proto-step
  (provide [step (-> (and/c integer? (lambda (s) (>= s 0)) (one-of/c 0 1))
                     (and/c integer? (lambda (c) (>= c 0)) (one-of/c 0 1))
                     (one-of/c 0 1))])
  (define (step s c) (if (= c 0) s (if (= s 0) 1 0))))
