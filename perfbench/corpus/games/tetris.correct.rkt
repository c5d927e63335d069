(module tetris
  (struct block (x y color))
  (provide
    [block/c (-> any/c boolean?)]
    [block-rotate-cw (-> block/c block/c block/c)]
    [block-shift (-> block/c integer? integer? block/c)]
    [blocks-first-x (-> (and/c (listof block/c) pair?) integer?)])
  (define (block/c b)
    (and (block? b) (integer? (block-x b)) (integer? (block-y b))))
  (define (block-rotate-cw c b)
    (block (+ (block-x c) (- (block-y c) (block-y b)))
           (+ (block-y c) (- (block-x b) (block-x c)))
           (block-color b)))
  (define (block-shift b dx dy)
    (block (+ (block-x b) dx) (+ (block-y b) dy) (block-color b)))
  (define (blocks-first-x bs) (block-x (car bs))))
