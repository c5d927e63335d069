(module filter-pos
  (provide [biggest-pos (-> (listof integer?) integer?)])
  (define (keep-pos xs)
    (if (null? xs)
        '()
        (if (> (car xs) 0)
            (cons (car xs) (keep-pos (cdr xs)))
            (keep-pos (cdr xs)))))
  (define (biggest-pos xs) (car (keep-pos xs))))
